import ast
import re
import subprocess
import sys
import types
from pathlib import Path

import fengrao
import fengrao.errors


def test_all_lists_exactly_the_public_names():
    # a name dropped from the imports or from __all__ alone fails here
    bound = {
        name
        for name, value in vars(fengrao).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(fengrao.__all__) == len(set(fengrao.__all__))
    assert set(fengrao.__all__) == bound


def test_every_refusal_raises_invalid_input_or_search_space_too_large():
    # one class per outcome the CLI tells apart (exit 2 and exit 4), no aliases
    raised = set()
    for path in sorted(Path(fengrao.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc) if exc else "bare raise")
    assert raised == {"InvalidInput", "SearchSpaceTooLarge"}
    classes = {
        name
        for name, value in vars(fengrao.errors).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    assert classes == {"FengRaoError", "InvalidInput", "SearchSpaceTooLarge"}


def test_sources_parse_as_the_oldest_supported_python():
    # catches syntax newer than the requires-python floor (except*, PEP 695
    # generics on a 3.10 floor), not calls into newer library APIs
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    minor = int(re.search(r'requires-python = ">=3\.(\d+)"', pyproject).group(1))
    for path in sorted(Path(fengrao.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, minor))


def test_every_public_name_and_member_has_a_docstring():
    # own docstrings only: an inherited one, or the signature a dataclass
    # writes in place of a missing one, does not count
    missing = []
    for name in fengrao.__all__:
        value = getattr(fengrao, name)
        doc = vars(value).get("__doc__") if isinstance(value, type) else value.__doc__
        if not doc or not doc.strip() or doc.startswith(f"{name}("):
            missing.append(name)
        if not isinstance(value, type):
            continue
        for member, attr in vars(value).items():
            if member.startswith("_"):
                continue
            if isinstance(attr, property):
                attr = attr.fget
            elif isinstance(attr, (classmethod, staticmethod)):
                attr = attr.__func__
            elif not isinstance(attr, types.FunctionType):
                continue
            if not (attr.__doc__ or "").strip():
                missing.append(f"{name}.{member}")
    assert missing == []


def test_cli_import_loads_no_introspection_module():
    # every fengrao command pays this import; dataclasses alone would pull in
    # inspect, ast, dis and tokenize, more than half of it, json, which only
    # --format json needs, would be a third of it, and argparse, which only
    # help and errors need, would bring gettext
    src = str(Path(fengrao.__file__).parent.parent)
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import fengrao.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True
    )
    added = set(run.stdout.split())
    assert "fengrao.cli" in added
    forbidden = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json", "argparse", "gettext"}
    assert added.isdisjoint(forbidden)


def test_valid_commands_do_not_load_argparse():
    # a valid request is read without argparse, whose import pulls in gettext
    # and locale; help is argparse's, so it loads it
    src = str(Path(fengrao.__file__).parent.parent)
    probe = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import fengrao.cli\n"
        "def loaded(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            assert fengrao.cli.main(argv) == 0\n"
        "        except SystemExit as exc:\n"
        "            assert exc.code == 0\n"
        "    return ','.join(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules)\n"
        "for fmt in ('csv', 'json'):\n"
        "    print(loaded(['number', '--interval', '4,1', '--r', '1..5', '--format', fmt]))\n"
        "    print(loaded(['grid', '--amax', '6', '--bmax', '3', '--rmax', '8',\n"
        "                  '--format', fmt]))\n"
        "    print(loaded(['divisors', '--gens', '9,13,15', '--x', '60', '--format', fmt]))\n"
        "print(loaded(['number', '-h']))\n"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True
    )
    *valid, helped = run.stdout.split("\n")[:-1]
    assert valid == [""] * 6
    assert "argparse" in helped.split(",")
