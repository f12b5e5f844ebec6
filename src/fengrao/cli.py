"""Command-line interface.

Subcommands: divisors, distance and its alias number, grid, amenable.
Every output is written as it is produced, divisors straight from the
mask.  Tables are CSV (default), JSON (array of flat objects, fixed key
order) or aligned ASCII from one writer, a few hundred rows per write;
divisors and amenable also render a planified grid, a line per write
(columns are residues mod the multiplicity).  Exit codes:
0 ok, 1 stdout closed by its reader, 2 input error (also an --out file
that cannot be opened or written, and a grid --amax or --rmax above the
guards), 3 cross-check disagreement, 4 search-space cap hit.

Each command's options are declared once, as add_argument keywords in
``_COMMANDS``.  A ``main`` call reads a well-formed request (exact
``--name value`` pairs and flags) from that table, with no argparse
parser; anything else goes to ``build_parser``'s whole tree, built from
it too, the only source of help, usage and error text and the only
importer of argparse.
Nothing is kept between calls: a cache would help only callers that make
many requests in one process, while a shell user pays on every run.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from itertools import chain, islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, TextIO

from .amenable import (
    _size_range,
    check_base,
    enumerate_amenable,
    shadow_representatives,
    smallest_asymptotic_base,
)
from .distances import DEFAULT_SUBSET_CAP, brute_force_distances, feng_rao_distances
from .divisors import _element_masks, divisors
from .errors import FengRaoError, InvalidInput, SearchSpaceTooLarge
from .interval import (
    _interval_numbers,
    as_interval,
    interval_feng_rao_number,
    interval_semigroup,
)
from .semigroup import _MAX_MULTIPLICITY, NumericalSemigroup, from_generators

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISMATCH = 3
EXIT_CAP = 4

# rows per write: 256 keeps a streamed table's peak memory flat; chunks of
# 4,096 grid rows peaked at 2.4 MB under tracemalloc
_CHUNK = 256
_LABELS = {"generic": "generic", "interval": "interval-formula", "brute": "brute-force"}


# ---------------------------------------------------------------- helpers


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise InvalidInput(f"cannot parse {what} {text!r} as comma-separated integers")


def _parse_r_range(text: str) -> range:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            values = range(int(lo), int(hi) + 1)
        else:
            values = range(int(text), int(text) + 1)
    except ValueError:
        raise InvalidInput(f"cannot parse r range {text!r}; use N or lo..hi")
    if not values or values.start < 1:
        raise InvalidInput(f"r range {text!r} is empty or starts below 1")
    return _size_range(values)


def _semigroup_from_args(args: argparse.Namespace) -> NumericalSemigroup:
    if args.interval:
        pair = _parse_ints(args.interval, "--interval")
        if len(pair) != 2:
            raise InvalidInput("--interval needs exactly two integers a,b")
        return interval_semigroup(*pair)
    if args.gens:
        return from_generators(_parse_ints(args.gens, "--gens"))
    raise InvalidInput("one of --gens or --interval is required")


def _resolve_m(sgp: NumericalSemigroup, m_arg: int | None) -> int:
    if m_arg is None:
        return smallest_asymptotic_base(sgp)
    check_base(sgp, m_arg)
    return m_arg


@contextmanager
def _output(out_path: str | None) -> Iterator[TextIO]:
    """The file named by --out, or stdout.

    Failing to open, write or close the file is an input error; stdout's
    own errors, a closed pipe among them, pass through.
    """
    if not out_path:
        yield sys.stdout
        return
    action = "open"
    try:
        with open(out_path, "w") as fh:
            action = "write"
            yield fh
    except OSError as exc:
        raise InvalidInput(f"cannot {action} --out {out_path!r}: {exc.strerror}")


def _write_json_array(items: Iterator[str], indent: str, fh: TextIO, tail: str) -> None:
    """JSON texts as json.dumps(indent=2) lays out a list ``indent`` deep, then tail."""
    lead, end = "[\n" + indent, "[]"
    for chunk in iter(lambda: list(islice(items, _CHUNK)), []):
        fh.write(lead + (",\n" + indent).join(chunk))
        lead, end = ",\n" + indent, "\n" + indent[2:] + "]"
    fh.write(end + tail)


def _write_table(
    rows: Iterable[dict], fmt: str, fh: TextIO, widest: Iterable[dict] | None = None
) -> None:
    """Write rows that share the first row's keys, in that order, as they come.

    csv and aligned ASCII fill one ``%s`` template per row, built from the
    first row's keys, with the cells of _CHUNK rows at a time, so no cell's
    text is parsed.  ASCII left-justifies the headers, right-justifies the
    cells to the widest cell of each column in ``widest`` (by default the
    rows, then held whole) and strips trailing blanks from each line; no
    cell holds a newline.  json has the layout of json.dumps(rows, indent=2).
    """
    if fmt == "json":
        import json  # not at module level: about 3 ms, a third of the cli import
        texts = (json.dumps(row, indent=2).replace("\n", "\n  ") for row in rows)
        return _write_json_array(texts, "  ", fh, "\n")
    if fmt == "ascii" and widest is None:
        rows = widest = list(rows)
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        fh.write("\n")
        return
    chunks = chain([[first]], iter(lambda: list(islice(rows, _CHUNK)), []))
    keys = list(first)
    if fmt == "csv":
        header, line = ",".join(keys), ",".join(["%s"] * len(keys))
    else:
        widths = {k: len(k) for k in keys}
        for row in widest:
            for k, value in row.items():
                widths[k] = max(widths[k], len(str(value)))
        header = "  ".join(k.ljust(widths[k]) for k in keys).rstrip()
        line = "  ".join(f"%{widths[k]}s" for k in keys)
    fh.write(header + "\n")
    for chunk in chunks:
        text = (line + "\n") * len(chunk) % tuple([row[k] for row in chunk for k in keys])
        if fmt == "ascii":
            text = "\n".join(map(str.rstrip, text.split("\n")))
        fh.write(text)


def _render_number_grid(sgp: NumericalSemigroup, lo: int, hi: int, marks: str) -> Iterator[str]:
    """Planified helix, line by line: one row per multiple of the multiplicity.

    Each cell of S in [lo, hi] is the integer n prefixed by its
    one-character marker ``marks[n - lo]``; gaps of S print in parentheses.
    Every integer from the conductor c on is in S, so membership is read
    from one mask of S ∩ [0, min(hi, c)].
    """
    a = sgp.multiplicity
    width = len(str(hi)) + 2
    top = min(hi, sgp.conductor)
    in_s = bin(_element_masks(sgp, top)[0] >> lo)[:1:-1].ljust(top - lo + 1, "0")  # n at n - lo
    for row_start in range((hi // a) * a, (lo // a) * a - 1, -a):
        cells = []
        for n in range(row_start, row_start + a):
            if n < lo or n > hi:
                cells.append(" " * (width + 1))
            elif n <= top and in_s[n - lo] == "0":
                cells.append(f"({n})".rjust(width + 1))
            else:
                cells.append(marks[n - lo] + str(n).rjust(width))
        yield "".join(cells).rstrip() + "\n"


# ------------------------------------------------------------- commands


def _cmd_divisors(args: argparse.Namespace) -> int:
    sgp = _semigroup_from_args(args)
    dset = divisors(sgp, args.x)
    with _output(args.out) as fh:
        if args.format == "json":
            import json
            # the bytes of json.dumps(payload, indent=2), "divisors" its last key
            head = dict(generators=list(sgp.minimal_generators), x=args.x, count=len(dset))
            fh.write(json.dumps(head, indent=2).removesuffix("\n}") + ',\n  "divisors": ')
            _write_json_array(map(str, dset), "    ", fh, "\n}\n")
        elif args.format == "csv":
            _write_table(({"divisor": d} for d in dset), "csv", fh)
        else:
            marks = bin(dset.mask)[:1:-1].replace("0", " ").replace("1", "*")  # d at d
            fh.writelines(_render_number_grid(sgp, 0, args.x, marks))
            fh.write(f"{len(dset)} divisors of {args.x} (marked *)\n")
    return EXIT_OK


def _cmd_distance_like(args: argparse.Namespace) -> int:
    if args.max_brute < 0:
        raise InvalidInput(f"--max-brute must be >= 0, got {args.max_brute}")
    sgp = _semigroup_from_args(args)
    m = _resolve_m(sgp, args.m)
    rs = _parse_r_range(args.r)
    interval = as_interval(sgp)
    if args.method == "all":
        methods = ["generic", "interval", "brute"] if interval else ["generic", "brute"]
    elif args.method == "auto":
        methods = ["interval" if interval else "generic"]
    elif args.method == "interval" and interval is None:
        raise InvalidInput("--method interval needs interval-shaped generators")
    else:
        methods = [args.method]
    offset = m + 1 - 2 * sgp.genus
    # one delta column per method.  The closed form answers per r; each
    # search serves the whole range at once, and its time lands on row 0.
    # Brute force runs first, so that its cap stops the command before the
    # generic search
    deltas: dict[str, list[int]] = {meth: [] for meth in methods}
    seconds = []
    for r in rs:
        t0 = time.perf_counter()
        if "interval" in deltas:
            deltas["interval"].append(offset + interval_feng_rao_number(*interval, r))
        seconds.append(time.perf_counter() - t0)
    if "brute" in deltas:
        t0 = time.perf_counter()
        results = brute_force_distances(sgp, m, rs, max_subsets=args.max_brute)
        deltas["brute"] = [res.delta for res in results]
        seconds[0] += time.perf_counter() - t0
    if "generic" in deltas:
        t0 = time.perf_counter()
        deltas["generic"] = [res.delta for res in feng_rao_distances(sgp, m, rs)]
        seconds[0] += time.perf_counter() - t0
    rows: list[dict] = []
    mismatch = False
    for i, r in enumerate(rs):
        cells = {meth: (col[i], col[i] - offset) for meth, col in deltas.items()}
        row: dict = {"r": r, "m": m}
        if args.method == "all":
            agree = len({delta for delta, _ in cells.values()}) == 1
            mismatch = mismatch or not agree
            for meth in ("generic", "interval", "brute"):
                row[f"delta_{meth}"], row[f"e_{meth}"] = cells.get(meth, ("-", "-"))
            row["agree"] = "yes" if agree else "no"
        else:
            row["delta"], row["e"] = cells[methods[0]]
            row["method"] = _LABELS[methods[0]]
        elapsed = 0.0 if args.no_timing else seconds[i] * 1000.0
        row["elapsed_ms"] = f"{elapsed:.3f}"
        rows.append(row)
    with _output(args.out) as fh:
        _write_table(rows, args.format, fh)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _grid_rows(amax: int, bmax: int, rmax: int) -> Iterator[dict]:
    """The grid rows in order, each (a, b) semigroup built once for its r."""
    for a in range(2, amax + 1):
        for b in range(1, min(a - 1, bmax) + 1):
            sgp = interval_semigroup(a, b)
            for r, (e, predicted) in enumerate(_interval_numbers(a, b, rmax), 1):
                yield {
                    "a": a,
                    "b": b,
                    "r": r,
                    "e": e,
                    "rho": sgp.rho(r),
                    "rho_case": "yes" if predicted else "no",
                }


def _cmd_grid(args: argparse.Namespace) -> int:
    amax, bmax, rmax = args.amax, args.bmax, args.rmax
    if amax < 2 or bmax < 1 or rmax < 1:
        raise InvalidInput("grid needs --amax >= 2, --bmax >= 1, --rmax >= 1")
    if amax > _MAX_MULTIPLICITY:
        raise InvalidInput(f"--amax {amax} is above the limit of {_MAX_MULTIPLICITY}")
    _size_range(rmax)
    # a row as wide as the widest in every column: E and rho peak at
    # (amax, 1, rmax), as E(S, r) <= rho_r, rho_r falls as b grows (<a..a+b>
    # lies in <a..a+b+1>), and E(<a, a+1>, r) = rho_r grows with r and a
    top = interval_feng_rao_number(amax, 1, rmax)
    b = min(amax - 1, bmax)
    widest = {"a": amax, "b": b, "r": rmax, "e": top, "rho": top, "rho_case": "yes"}
    with _output(args.out) as fh:
        _write_table(_grid_rows(amax, bmax, rmax), args.format, fh, [widest])
    return EXIT_OK


def _cmd_amenable(args: argparse.Namespace) -> int:
    sgp = _semigroup_from_args(args)
    m = _resolve_m(sgp, args.m)
    rs = _parse_r_range(args.r)
    if len(rs) != 1:
        raise InvalidInput("amenable takes a single --r value")
    source = shadow_representatives if args.representatives else enumerate_amenable
    # each set is written as the search yields it, so memory stays flat
    configs = enumerate(source(sgp, m, rs.start))
    with _output(args.out) as fh:
        if args.format == "ascii":
            upper = m + sgp.largest_generator
            for i, config in configs:
                top = config.elements[-1]
                marks = [" "] * (top - m + 1)  # x at x - m
                for x in config.elements:
                    marks[x - m] = "#" if x < upper else "+"
                fh.write("\n" if i else "")
                fh.write(f"[{i}] " + " ".join(str(x) for x in config.elements) + "\n")
                fh.writelines(_render_number_grid(sgp, m, top, "".join(marks)))
        else:
            rows = (
                {
                    "index": i,
                    "count": len(config),
                    "elements": " ".join(str(x) for x in config.elements),
                }
                for i, config in configs
            )
            _write_table(rows, args.format, fh)
    return EXIT_OK


# ---------------------------------------------------------------- parser


_REQUIRED_INT = {"type": int, "required": True}
_SOURCE = {  # the one exclusive pair: build_parser groups it, _read refuses both
    "--gens": {"help": "comma-separated generators, e.g. 9,13,15"},
    "--interval": {"help": "interval generators a,b for <a..a+b>"},
}
_OUTPUT = {
    "--format": {"choices": ["csv", "json", "ascii"], "default": "csv"},
    "--out": {"help": "write output to this file instead of stdout"},
}
_DISTANCE = {
    **_SOURCE,
    **_OUTPUT,
    "--r": {"required": True, "help": "configuration size N or range lo..hi"},
    "--method": {"choices": ["auto", "generic", "interval", "brute", "all"], "default": "auto"},
    "--m": {"type": int, "help": "base (default 2c-1)"},
    "--max-brute": {
        "type": int,
        "default": DEFAULT_SUBSET_CAP,
        "help": "exit 4 when brute force has more candidate subsets C(rho_r, r-1) "
        "than this, counted before the search starts; the pruned search visits "
        "at most that many",
    },
    "--no-timing": {
        "action": "store_true",
        "help": "report elapsed_ms as 0.000 for byte-stable output",
    },
}

# command name -> (its line in the top-level help, its runner, its options:
# "--name" -> the keywords of its add_argument call, in help order)
_COMMANDS = {
    "divisors": (
        "divisors of a semigroup element",
        _cmd_divisors,
        {**_SOURCE, **_OUTPUT, "--x": _REQUIRED_INT},
    ),
    "distance": ("r-th Feng-Rao distance at m", _cmd_distance_like, _DISTANCE),
    "number": ("r-th Feng-Rao number E(S, r)", _cmd_distance_like, _DISTANCE),
    "grid": (
        "E(r, <a..a+b>) over a parameter grid",
        _cmd_grid,
        {"--amax": _REQUIRED_INT, "--bmax": _REQUIRED_INT, "--rmax": _REQUIRED_INT, **_OUTPUT},
    ),
    "amenable": (
        "list amenable sets or shadow representatives",
        _cmd_amenable,
        {
            **_SOURCE,
            **_OUTPUT,
            "--r": {"required": True},
            "--m": {"type": int},
            "--representatives": {"action": "store_true"},
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: the top-level parser and one subparser per command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fengrao",
        description="Divisor sets and Feng-Rao numbers of numerical semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        # argparse refuses to format an empty group, so grid gets none
        source = p.add_mutually_exclusive_group() if "--gens" in options else p
        for flag, spec in options.items():
            (source if flag in _SOURCE else p).add_argument(flag, **spec)
    return parser


def _read(name: str, tokens: Sequence[str]) -> SimpleNamespace | None:
    """What argparse would parse from a command's tokens, or None to leave them to it.

    Exact option names only, each once, with every required one and not
    both of --gens and --interval; a value must be there, must not start
    with "-", and must convert and lie in its choices.
    """
    _, run, options = _COMMANDS[name]
    given: dict = {}
    tokens = iter(tokens)
    for flag in tokens:
        spec = options.get(flag)
        if spec is None or flag in given:
            return None
        if "action" in spec:  # store_true
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value is refused as a "-" one
        if text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    if _SOURCE.keys() <= given.keys() or any(
        spec.get("required") and flag not in given for flag, spec in options.items()
    ):
        return None
    values = {}
    for flag, spec in options.items():
        default = spec.get("default", False if "action" in spec else None)
        values[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**values, run=run)


def _parse_args(argv: Sequence[str]) -> SimpleNamespace | argparse.Namespace:
    """Read a well-formed request without argparse, else parse argv with the whole tree.

    ``_read`` parses the rest of argv by the named command's entry in
    ``_COMMANDS`` into the namespace argparse would give.  When it cannot
    (help, an unknown command, any form it does not read, or input
    argparse refuses), the whole tree parses argv, so every help text,
    usage line, error and exit code is argparse's.
    """
    args = _read(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    return args if args is not None else build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except FengRaoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP if isinstance(exc, SearchSpaceTooLarge) else EXIT_INPUT
    except BrokenPipeError:
        # the reader went away: send what is still buffered to devnull, so
        # the flush at exit cannot fail again, and exit 1 without a
        # traceback, as the recipe in Python's signal docs does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
