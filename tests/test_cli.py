import argparse
import contextlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import fengrao.cli as cli
import fengrao.distances as distances
import fengrao.semigroup as semigroup
from fengrao import (
    Configuration,
    FengRaoError,
    InvalidInput,
    SearchSpaceTooLarge,
    divisors,
    divisors_above,
    enumerate_amenable,
    from_generators,
    h_decompose,
    interval_extra_divisors,
    interval_feng_rao_number,
    interval_semigroup,
    interval_shadow_divisor_count,
    ordered_amenable_set,
    rho_equality_predicted,
    shadow_representatives,
    smallest_asymptotic_base,
    wagon_pivot,
)
from corpus import corpus_semigroups

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_divisors_golden_csv(capsys):
    code, out = run_cli(capsys, "divisors", "--gens", "9,13,15", "--x", "60")
    assert code == 0
    values = out.strip().splitlines()
    assert values[0] == "divisor"
    assert values[1:] == "0 9 15 18 24 27 30 33 36 42 45 51 60".split()


def test_divisors_naturals(capsys):
    code, out = run_cli(capsys, "divisors", "--gens", "1", "--x", "5")
    assert code == 0
    assert out.strip().splitlines()[1:] == [str(n) for n in range(6)]


def test_divisors_error_exit(capsys):
    assert cli.main(["divisors", "--gens", "9,13,15", "--x", "47"]) == 2
    assert cli.main(["divisors", "--gens", "4,6", "--x", "8"]) == 2
    assert cli.main(["divisors", "--x", "8"]) == 2


def test_number_e1_paper_semigroup(capsys):
    code, out = run_cli(
        capsys, "number", "--gens", "19,20,21,22,23", "--r", "1", "--no-timing"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "r,m,delta,e,method,elapsed_ms"
    # m = 2c-1 = 189, delta = m + 1 - 2g = 90, E_1 = 0
    assert row.split(",")[:4] == ["1", "189", "90", "0"]


def test_number_interval_method(capsys):
    code, out = run_cli(
        capsys, "number", "--interval", "5,2", "--r", "3", "--method", "interval",
        "--no-timing",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[3] == "6"
    assert row[4] == "interval-formula"


def test_number_auto_matches_generic_on_intervals(capsys):
    _, auto = run_cli(
        capsys, "number", "--interval", "5,2", "--r", "1..6", "--no-timing"
    )
    _, generic = run_cli(
        capsys, "number", "--interval", "5,2", "--r", "1..6", "--method", "generic",
        "--no-timing",
    )
    pick = lambda text: [line.split(",")[2:4] for line in text.strip().splitlines()[1:]]
    assert pick(auto) == pick(generic)


def number_16_17_columns(capsys, top):
    """The r, m, delta and e columns of `number --interval 16,1 --r 1..top`
    by the generic search and by the closed form."""
    columns = []
    for method in ("generic", "interval"):
        code, out = run_cli(
            capsys, "number", "--interval", "16,1", "--r", f"1..{top}",
            "--method", method, "--no-timing",
        )
        assert code == 0
        columns.append([line.split(",")[:4] for line in out.strip().splitlines()])
    assert columns[0][0] == ["r", "m", "delta", "e"]
    assert len(columns[0]) == top + 1
    return columns


def test_generic_search_reaches_r_30_on_16_17(capsys):
    # the search without a bound did not finish this in a minute
    generic, interval = number_16_17_columns(capsys, 30)
    assert generic == interval


def test_generic_search_reaches_r_200_on_16_17(capsys):
    # when the walker drew every set of a shadow, r 1..80 alone took 12.5 s
    generic, interval = number_16_17_columns(capsys, 200)
    assert generic == interval


def test_number_all_methods_agree(capsys):
    code, out = run_cli(
        capsys, "number", "--interval", "4,1", "--r", "1..5", "--method", "all",
        "--no-timing",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[3] for row in rows] == ["0", "4", "5", "8", "9"]  # oracle-frozen
    assert all(row[8] == "yes" for row in rows)


@pytest.mark.parametrize("pair, rs", [
    ("4,1", "3..9"), ("5,2", "4..10"), ("7,3", "2..11"), ("9,3", "5..12"), ("6,5", "4..9"),
])
def test_number_all_methods_agree_from_a_later_start(pair, rs, capsys):
    # the closed form's stepping starts from one decomposition of lo > 1
    code, out = run_cli(
        capsys, "number", "--interval", pair, "--r", rs, "--method", "all", "--no-timing",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    lo, hi = map(int, rs.split(".."))
    assert [int(row[0]) for row in rows] == list(range(lo, hi + 1))
    assert all(row[8] == "yes" for row in rows)


def test_number_mismatch_exit_code(monkeypatch, capsys):
    def wrong_numbers(a, b, rs):
        for _ in rs:
            yield 999, False

    monkeypatch.setattr(cli, "_interval_numbers", wrong_numbers)
    code, _ = run_cli(
        capsys, "number", "--interval", "4,1", "--r", "2", "--method", "all",
        "--no-timing",
    )
    assert code == 3


def test_brute_cap_exit_code(capsys):
    code, _ = run_cli(
        capsys, "number", "--gens", "9,13,15", "--r", "5", "--method", "brute",
        "--max-brute", "10", "--no-timing",
    )
    assert code == 4


def test_negative_brute_cap_is_an_input_error(capfd):
    # refused before any search, on every method, not taken as a cap hit
    for method in ("brute", "all", "generic"):
        code = cli.main([
            "number", "--gens", "4,5", "--r", "2", "--method", method,
            "--max-brute", "-1", "--no-timing",
        ])
        out, err = capfd.readouterr()
        assert (code, out) == (2, ""), method
        assert err == "error: --max-brute must be >= 0, got -1\n"


def test_brute_cap_stops_all_before_the_generic_search(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the generic search ran")

    monkeypatch.setattr(cli, "feng_rao_distances", refuse)
    code, _ = run_cli(
        capsys, "number", "--interval", "14,1", "--r", "1..14", "--method", "all",
        "--max-brute", "1000", "--no-timing",
    )
    assert code == 4


def _refuse_masks(monkeypatch):
    def refuse(*args):
        raise AssertionError("a divisor mask was built")

    monkeypatch.setattr(distances, "_divisor_masks", refuse)


def test_brute_cap_in_the_middle_of_a_range_refused_before_any_mask(monkeypatch, capfd):
    # <9,13,15> has C(rho_r, r-1) = 455, 3,060 and 26,334 at r = 4, 5, 6:
    # the first r over the cap is refused, before the walk builds its window
    _refuse_masks(monkeypatch)
    for method in ("brute", "all"):
        code = cli.main([
            "number", "--gens", "9,13,15", "--r", "4..6", "--method", method,
            "--max-brute", "3059", "--no-timing",
        ])
        out, err = capfd.readouterr()
        assert (code, out) == (4, ""), method
        assert err == "error: 3060 candidate subsets exceed the cap of 3059\n"


@pytest.mark.parametrize(
    "m, cap, code, message",
    [
        # rho_5 = 18: m + rho_5 = 4,000,001 is over the element guard, and
        # r = 5 is over the cap too; each r's cap comes before its guard
        (3_999_983, 3059, 4, "3060 candidate subsets exceed the cap of 3059"),
        (3_999_983, None, 2, "element 4000001 exceeds the guard of 4000000"),
        # a smaller r refuses first, whichever check it fails
        (3_999_983, 454, 4, "455 candidate subsets exceed the cap of 454"),
        (3_999_986, 3059, 2, "element 4000001 exceeds the guard of 4000000"),
    ],
)
def test_brute_refusals_keep_their_order(monkeypatch, capfd, m, cap, code, message):
    _refuse_masks(monkeypatch)
    argv = ["number", "--gens", "9,13,15", "--r", "4..6", "--m", str(m),
            "--method", "brute", "--no-timing"]
    if cap is not None:
        argv += ["--max-brute", str(cap)]
    assert cli.main(argv) == code
    out, err = capfd.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_m_below_guarantee_refused(capsys):
    code, _ = run_cli(
        capsys, "distance", "--gens", "4,5", "--r", "2", "--m", "13", "--no-timing"
    )
    assert code == 2
    # <5,6,7> has 2c-1 = 19; the closed form never reaches the search's check
    code, _ = run_cli(
        capsys, "distance", "--interval", "5,2", "--r", "2", "--m", "18",
        "--method", "interval", "--no-timing",
    )
    assert code == 2
    code, _ = run_cli(capsys, "amenable", "--interval", "5,2", "--r", "2", "--m", "18")
    assert code == 2


def test_semigroup_arguments_refused(capsys):
    assert cli.main(["number", "--interval", "4,4", "--r", "1"]) == 2
    assert cli.main(["number", "--gens", "2,2147483647", "--r", "1"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["number", "--gens", "2,3", "--interval", "4,1", "--r", "1"])
    assert exc.value.code == 2


def test_element_bound_refused_before_allocating(capsys):
    # above the element guard, divisors and brute force exit 2 before any
    # digit string or mask sized by x or m exists; the generic search
    # counts in windows of c bits and answers at any base
    over = str(semigroup._MAX_ELEMENT + 1)
    gens = ["--gens", "5,6,7,9", "--r", "2", "--no-timing"]
    _, at_base = run_cli(capsys, "distance", *gens, "--method", "generic")
    base_row = at_base.splitlines()[1].split(",")
    tracemalloc.start()
    try:
        # a build just over the guard costs 4 MB, so an unguarded one fails
        # here, before the x of 10 GB below is tried
        for method in ("brute", "all"):
            code, _ = run_cli(capsys, "distance", *gens, "--m", over, "--method", method)
            assert code == 2, method
        code, out = run_cli(capsys, "distance", *gens, "--m", over, "--method", "generic")
        assert code == 0
        code, _ = run_cli(capsys, "divisors", "--gens", "2,3", "--x", "10000000000")
        assert code == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the digits for m alone would take 4 MB, for x 10 GB
    row = out.splitlines()[1].split(",")
    assert row[1] == over
    assert int(row[2]) == int(base_row[2]) + int(over) - int(base_row[1])
    # the interval closed form allocates nothing and takes any base
    code, out = run_cli(
        capsys, "distance", "--interval", "5,2", "--r", "3", "--m", "10000000000",
        "--no-timing",
    )
    assert code == 0
    assert out.splitlines()[1].startswith("3,10000000000,")


def test_distance_translation(capsys):
    _, at_base = run_cli(
        capsys, "distance", "--gens", "5,6,7", "--r", "3", "--no-timing"
    )
    _, above = run_cli(
        capsys, "distance", "--gens", "5,6,7", "--r", "3", "--m", "24", "--no-timing"
    )
    delta0 = int(at_base.strip().splitlines()[1].split(",")[2])
    delta5 = int(above.strip().splitlines()[1].split(",")[2])
    assert delta5 == delta0 + 5


def test_json_round_trip(capsys):
    code, out = run_cli(
        capsys, "number", "--interval", "5,2", "--r", "1..4", "--format", "json",
        "--no-timing",
    )
    assert code == 0
    records = json.loads(out)
    assert json.loads(json.dumps(records)) == records
    assert [rec["e"] for rec in records] == [0, 3, 6, 7]
    assert list(records[0]) == ["r", "m", "delta", "e", "method", "elapsed_ms"]


@pytest.mark.parametrize("method", ["auto", "generic", "interval", "brute", "all"])
def test_number_and_distance_are_one_command(method, capfd):
    # the two names share one parser and one command, with the same
    # output and exit code on success and on refusal alike
    for source in (["--interval", "5,2"], ["--gens", "4,6,7"]):
        for r in ("1", "2..4"):
            argv = [*source, "--r", r, "--method", method, "--no-timing"]
            results = []
            for command in ("number", "distance"):
                code = cli.main([command, *argv])
                results.append((code, *capfd.readouterr()))
            assert results[0] == results[1], argv


RANGE_CASES = [
    ("number", "--interval", "5,2"),
    ("number", "--gens", "4,6,7"),
    ("distance", "--interval", "5,2", "--m", "23"),
    ("distance", "--gens", "4,6,7", "--m", "22"),
]


@pytest.mark.parametrize("case", RANGE_CASES, ids=lambda c: "-".join(c).replace("--", ""))
@pytest.mark.parametrize("method", ["generic", "all", "auto"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_range_equals_single_r_calls(case, method, fmt, capsys):
    argv = [*case, "--method", method, "--format", fmt, "--no-timing"]
    code, whole = run_cli(capsys, *argv, "--r", "2..5")
    assert code == 0
    singles = [run_cli(capsys, *argv, "--r", str(r)) for r in range(2, 6)]
    assert all(code == 0 for code, _ in singles)
    if fmt == "csv":
        header = singles[0][1].splitlines(keepends=True)[0]
        assert whole == header + "".join(out.split("\n", 1)[1] for _, out in singles)
    else:
        rows = [row for _, out in singles for row in json.loads(out)]
        assert whole == json.dumps(rows, indent=2) + "\n"


def test_r_bound_refused_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the search started")

    for name in ("feng_rao_distances", "interval_feng_rao_number", "_interval_numbers",
                 "brute_force_distances", "enumerate_amenable"):
        monkeypatch.setattr(cli, name, refuse)
    for method in ("generic", "interval", "brute", "all", "auto"):
        for r in ("1..1000000000000", "10001"):
            code, _ = run_cli(
                capsys, "number", "--interval", "4,1", "--r", r, "--method", method
            )
            assert code == 2, (method, r)
    code, _ = run_cli(capsys, "amenable", "--interval", "4,1", "--r", "1000000000000")
    assert code == 2
    with pytest.raises(AssertionError, match="started"):
        cli.main(["number", "--interval", "4,1", "--r", "10000", "--method", "interval"])


def test_grid_values(capsys):
    code, out = run_cli(capsys, "grid", "--amax", "4", "--bmax", "1", "--rmax", "2")
    assert code == 0
    rows = {tuple(line.split(",")[:3]): line.split(",")[3:] for line in out.strip().splitlines()[1:]}
    assert rows[("4", "1", "1")][0] == "0"
    assert rows[("4", "1", "2")][0] == "4"


def test_grid_rho_flag_matches_predicted_sets(capsys):
    # for (5,2) and small r the predicted rho-equality cases are
    # {1} u {3,4} u {7,8,9} u {r >= 10}
    _, out = run_cli(capsys, "grid", "--amax", "5", "--bmax", "2", "--rmax", "10")
    flags = {
        int(line.split(",")[2]): line.split(",")[5]
        for line in out.strip().splitlines()[1:]
        if line.split(",")[:2] == ["5", "2"]
    }
    expected = {1, 3, 4, 7, 8, 9, 10}
    assert {r for r, f in flags.items() if f == "yes"} == expected


def per_cell_grid_rows(amax, bmax, rmax):
    """The grid rows, each cell from the public closed forms."""
    rows = []
    for a in range(2, amax + 1):
        for b in range(1, min(a - 1, bmax) + 1):
            sgp = interval_semigroup(a, b)
            for r in range(1, rmax + 1):
                rows.append({
                    "a": a,
                    "b": b,
                    "r": r,
                    "e": interval_feng_rao_number(a, b, r),
                    "rho": sgp.rho(r),
                    "rho_case": "yes" if rho_equality_predicted(a, b, r) else "no",
                })
    return rows


def old_grid_rendering(amax, bmax, rmax, fmt):
    """What the grid command printed when it built every row before writing."""
    return render_table(per_cell_grid_rows(amax, bmax, rmax), fmt)


def test_grid_rows_equal_the_per_cell_closed_forms():
    # the rows step r's decomposition once per r instead of decomposing each
    # cell: many blocks h, shadows past the ground, and b up to a - 1
    for amax, bmax, rmax in [(12, 11, 12), (30, 29, 60), (40, 7, 200), (9, 3, 500)]:
        assert list(cli._grid_rows(amax, bmax, rmax)) == per_cell_grid_rows(
            amax, bmax, rmax
        ), (amax, bmax, rmax)


@pytest.mark.parametrize("fmt", ["csv", "json", "ascii"])
def test_grid_streams_the_whole_table_rendering(fmt, tmp_path, capsys):
    # full triangles, bmax < amax - 1, bmax above amax - 1, and rmax = 1; then
    # for the ascii widths, fixed from (amax, 1, rmax) before the first row,
    # each side of a column gaining a digit: e and r reach 10, a and b reach
    # 10, bmax has more digits than amax - 1, e reaches 100, and r reaches 100
    assert interval_feng_rao_number(12, 1, 40) == 99
    for amax, bmax, rmax in [(2, 1, 1), (6, 3, 8), (12, 11, 12), (9, 2, 5),
                             (7, 6, 1), (5, 9, 3), (2, 1, 9), (2, 1, 10),
                             (10, 9, 1), (11, 10, 1), (5, 12, 3), (12, 2, 40),
                             (12, 2, 41), (3, 2, 100)]:
        expected = old_grid_rendering(amax, bmax, rmax, fmt)
        argv = ["grid", "--amax", str(amax), "--bmax", str(bmax), "--rmax", str(rmax),
                "--format", fmt]
        assert run_cli(capsys, *argv) == (0, expected), (amax, bmax, rmax)
        target = tmp_path / "out.txt"
        assert cli.main(argv + ["--out", str(target)]) == 0
        assert target.read_text() == expected


def test_grid_memory_stays_flat():
    # 9,360 rows over 780 semigroups; the whole row list and a cache of every
    # semigroup built peaked near 5 MB and kept over 2 MB after returning, and
    # aligned ascii, which collected its rows for the column widths, near 8 MB
    for fmt in ("csv", "ascii"):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code = cli.main(["grid", "--amax", "40", "--bmax", "39", "--rmax", "12",
                             "--format", fmt, "--out", os.devnull])
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2_000_000, fmt
        assert after - before < 1_000_000, fmt


def test_grid_invalid_bounds(capsys):
    assert cli.main(["grid", "--amax", "1", "--bmax", "1", "--rmax", "1"]) == 2


def test_grid_bounds_refused_before_any_row(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid started")

    for name in ("interval_semigroup", "interval_feng_rao_number", "_interval_numbers"):
        monkeypatch.setattr(cli, name, refuse)
    target = tmp_path / "grid.csv"
    over_a = str(semigroup._MAX_MULTIPLICITY + 1)
    for amax, rmax in [(over_a, "1"), ("2", "1000000000000"), ("2", "10001")]:
        argv = ["grid", "--amax", amax, "--bmax", "1", "--rmax", rmax]
        assert cli.main(argv + ["--out", str(target)]) == 2, (amax, rmax)
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert not target.exists()
    for amax, rmax in [(str(semigroup._MAX_MULTIPLICITY), "1"), ("2", "10000")]:
        with pytest.raises(AssertionError, match="started"):
            cli.main(["grid", "--amax", amax, "--bmax", "1", "--rmax", rmax])


def test_amenable_listing(capsys):
    code, out = run_cli(capsys, "amenable", "--gens", "4,5", "--r", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[2] for row in rows] == ["23 24", "23 25", "23 26", "23 27"]


def test_amenable_representatives_not_more(capsys):
    _, full = run_cli(capsys, "amenable", "--interval", "5,2", "--r", "4")
    _, reps = run_cli(
        capsys, "amenable", "--interval", "5,2", "--r", "4", "--representatives"
    )
    assert len(reps.splitlines()) <= len(full.splitlines())


def render_table(rows, fmt):
    """The whole-table rendering the CLI used before tables were streamed."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    headers = list(rows[0].keys()) if rows else []
    cells = [[str(row[h]) for h in headers] for row in rows]
    if fmt == "csv":
        lines = [",".join(headers)] + [",".join(row) for row in cells]
        return "\n".join(lines) + "\n"
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_number_grid(sgp, lo, hi, marks):
    """The whole planified grid as one string, marks a dict n -> marker."""
    a = sgp.multiplicity
    width = len(str(hi)) + 2
    lines = []
    for row_start in range((hi // a) * a, (lo // a) * a - 1, -a):
        cells = []
        for n in range(row_start, row_start + a):
            if n < lo or n > hi:
                cells.append(" " * (width + 1))
            elif not sgp.contains(n):
                cells.append(f"({n})".rjust(width + 1))
            else:
                cells.append(marks.get(n, " ") + str(n).rjust(width))
        lines.append("".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def old_amenable_rendering(sgp, m, configs, fmt):
    """What the amenable command printed when it rendered the whole listing."""
    if fmt == "ascii":
        out = []
        for i, config in enumerate(configs):
            marks = {x: "#" if x < m + sgp.largest_generator else "+" for x in config.elements}
            out.append(f"[{i}] " + " ".join(str(x) for x in config.elements))
            out.append(render_number_grid(sgp, m, max(config.elements), marks))
        return "\n".join(out)
    rows = [
        {"index": i, "count": len(c), "elements": " ".join(str(x) for x in c.elements)}
        for i, c in enumerate(configs)
    ]
    return render_table(rows, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json", "ascii"])
def test_amenable_streams_the_whole_listing_rendering(fmt, tmp_path, capsys):
    for gens, r, m in [("4,5", 3, 23), ("5,6,7", 4, 19), ("9,13,15", 3, 100), ("1", 1, 0)]:
        s = from_generators([int(g) for g in gens.split(",")])
        for flag, source in [([], enumerate_amenable), (["--representatives"], shadow_representatives)]:
            expected = old_amenable_rendering(s, m, list(source(s, m, r)), fmt)
            argv = ["amenable", "--gens", gens, "--r", str(r), "--m", str(m),
                    "--format", fmt, *flag]
            assert run_cli(capsys, *argv) == (0, expected), (gens, r, flag)
            target = tmp_path / "out.txt"
            assert cli.main(argv + ["--out", str(target)]) == 0
            assert target.read_text() == expected


@pytest.mark.parametrize("fmt", ["csv", "json", "ascii"])
def test_write_table_matches_whole_table_rendering(fmt):
    # the row templates must never parse a cell's text, and a table longer
    # than two chunks must join its chunks without a seam
    chunked = [{"a": i, "b": "x" * (i % 7)} for i in range(2 * cli._CHUNK + 1)]
    for rows in ([], [{"a": 1, "b": "x y"}], [{"a": 1, "b": "-"}, {"a": 22, "b": "z"}],
                 [{"a": "%", "b": "%(a)s"}, {"a": "%s%%", "b": "%(b)5s"}], chunked):
        written = io.StringIO()
        cli._write_table(iter(rows), fmt, written)
        assert written.getvalue() == render_table(rows, fmt)


def test_amenable_listing_memory_stays_flat():
    # 17,210 sets; the whole listing held in memory peaked near 19 MB
    tracemalloc.start()
    try:
        code = cli.main(["amenable", "--interval", "12,1", "--r", "11",
                         "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4_000_000


@pytest.mark.parametrize("fmt", ["csv", "json", "ascii"])
def test_divisors_memory_stays_flat(fmt):
    # 399,953 divisors; a whole tuple of them peaked near 20 MB in csv, and
    # json and ascii, which rendered the whole set at once, near 48 MB
    tracemalloc.start()
    try:
        code = cli.main(["divisors", "--gens", "9,13,15", "--x", "400000",
                         "--format", fmt, "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4_000_000


def old_divisors_rendering(sgp, x, fmt):
    """What the divisors command printed when it rendered the whole set."""
    elements = [d for d in range(x + 1) if sgp.contains(d) and sgp.contains(x - d)]
    if fmt == "json":
        payload = {"generators": list(sgp.minimal_generators), "x": x,
                   "count": len(elements), "divisors": elements}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        return render_table([{"divisor": d} for d in elements], "csv")
    grid = render_number_grid(sgp, 0, x, {d: "*" for d in elements})
    return grid + f"{len(elements)} divisors of {x} (marked *)\n"


class WriteLog(io.StringIO):
    """A stdout that keeps the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("fmt", ["csv", "json", "ascii"])
def test_divisors_streams_the_whole_set_rendering(fmt, monkeypatch, tmp_path):
    # x = 0, the conductor, 2c - 1 and a set of 4 * _CHUNK + 1 divisors, on
    # S = N too; the largest set must reach stdout in pieces
    for s in corpus_semigroups() + [interval_semigroup(12, 1)]:
        gens = ",".join(map(str, s.minimal_generators))
        c, many = s.conductor, 2 * s.genus + 4 * cli._CHUNK
        for x in sorted({0, c, max(2 * c - 1, 0), many}):
            expected = old_divisors_rendering(s, x, fmt)
            argv = ["divisors", "--gens", gens, "--x", str(x), "--format", fmt]
            monkeypatch.setattr(sys, "stdout", WriteLog())
            code, log = cli.main(argv), sys.stdout
            monkeypatch.undo()
            assert (code, log.getvalue()) == (0, expected), (gens, x)
            assert x < many or 3 * max(log.sizes) < len(expected), (gens, x)
    target = tmp_path / "out.txt"
    assert cli.main(argv + ["--out", str(target)]) == 0
    assert target.read_text() == expected


def test_number_grid_equals_the_per_cell_renderer():
    # the grid reads membership from one mask; the bytes are those of the
    # per-cell contains() loop
    rng = random.Random(16)
    for s in corpus_semigroups() + [interval_semigroup(12, 1)]:
        c, a = s.conductor, s.multiplicity
        windows = [(0, 0), (0, max(c - 1, 0)), (0, c), (0, 2 * c + 3 * a), (c, c + a - 1),
                   (2 * c + 1, 2 * c + 5 * a + 2), (max(c - 2, 0), c + 2 * a)]
        for lo, hi in windows:
            marks = "".join(rng.choice(" *#+") for _ in range(hi - lo + 1))
            expected = render_number_grid(
                s, lo, hi, {n: marks[n - lo] for n in range(lo, hi + 1)}
            )
            got = "".join(cli._render_number_grid(s, lo, hi, marks))
            assert got == expected, (s.minimal_generators, lo, hi)


def test_ascii_formats_render(capsys):
    code, out = run_cli(
        capsys, "divisors", "--gens", "9,13,15", "--x", "60", "--format", "ascii"
    )
    assert code == 0
    assert "*  60" in out and "13 divisors" in out
    code, out = run_cli(
        capsys, "amenable", "--gens", "4,5", "--r", "2", "--format", "ascii"
    )
    assert code == 0
    assert "#" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, _ = run_cli(
        capsys, "grid", "--amax", "4", "--bmax", "1", "--rmax", "2", "--out", str(target)
    )
    assert code == 0
    assert target.read_text().startswith("a,b,r,e,rho,rho_case")
    for fmt in ("csv", "json", "ascii"):
        argv = ["divisors", "--gens", "9,13,15", "--x", "60", "--format", fmt]
        _, out = run_cli(capsys, *argv)
        assert cli.main(argv + ["--out", str(target)]) == 0
        assert target.read_text() == out


@pytest.mark.parametrize("command", [
    ["divisors", "--gens", "4,5", "--x", "9"],
    ["grid", "--amax", "3", "--bmax", "1", "--rmax", "1"],
    ["number", "--interval", "4,1", "--r", "2"],
    ["amenable", "--gens", "4,5", "--r", "2"],
], ids=lambda argv: argv[0])
def test_out_that_cannot_be_opened_exits_2(command, tmp_path, capsys):
    # a directory (IsADirectoryError) and a missing parent (FileNotFoundError)
    for target in (tmp_path, tmp_path / "missing" / "x.csv"):
        assert cli.main(command + ["--out", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot open --out ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", [
    ["divisors", "--gens", "4,5", "--x", "30"],  # fails as the file closes
    ["grid", "--amax", "40", "--bmax", "39", "--rmax", "12"],  # fails mid-stream
], ids=lambda argv: argv[0])
def test_out_that_cannot_be_written_exits_2(command, capfd):
    assert cli.main(command + ["--out", "/dev/full"]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == "error: cannot write --out '/dev/full': No space left on device\n"


@pytest.mark.parametrize("error", [FengRaoError, *FengRaoError.__subclasses__()],
                         ids=lambda cls: cls.__name__)
def test_every_package_error_takes_the_one_error_path(error, monkeypatch, capfd):
    def fail(*args, **kwargs):
        raise error("the message")

    monkeypatch.setattr(cli, "divisors", fail)
    code = cli.main(["divisors", "--gens", "4,5", "--x", "9"])
    assert code == (4 if error is SearchSpaceTooLarge else 2)
    assert capfd.readouterr() == ("", "error: the message\n")


# one library refusal per precondition of the paper or argument check,
# with its message
PRECONDITION_REFUSALS = {
    "gcd-not-1": (lambda: from_generators([4, 6]), "gcd of generators is 2, not 1"),
    "not-an-element": (
        lambda: divisors(from_generators([4, 5]), 7),
        "7 is not an element of the semigroup",
    ),
    "x-outside-c-to-y": (
        lambda: divisors_above(from_generators([9, 13, 15]), 60, 30),
        "need conductor 48 <= x <= y, got x=30, y=60",
    ),
    "base-below-2c-1": (
        lambda: list(enumerate_amenable(from_generators([4, 5]), 13, 2)),
        "base 13 is below max(2c-1, 0) = 23; the identity "
        "delta(m) = m + 1 - 2g + E is only guaranteed from there on",
    ),
    "b-outside-0-to-a": (lambda: interval_semigroup(4, 4), "need 0 < b < a, got a=4, b=4"),
    "not-amenable": (
        lambda: interval_shadow_divisor_count(
            5, 2, smallest_asymptotic_base(interval_semigroup(5, 2)), [0, 6]
        ),
        "offsets (0, 6) do not give an amenable set",
    ),
    "no-ordered-amenable-set": (
        lambda: ordered_amenable_set(4, 1, 100, 11),
        "r=11 needs shadow edge 4 < a+b-1 = 4",
    ),
    "elements-not-increasing": (
        lambda: Configuration(23, (23, 28, 28)),
        "configuration elements must be strictly increasing",
    ),
    "least-element-not-base": (
        lambda: Configuration(23, (24, 28)),
        "least element 24 differs from base 23",
    ),
    "r-below-1": (lambda: h_decompose(0, 2), "need r, b >= 1, got r=0, b=2"),
    "q-below-0": (
        lambda: interval_extra_divisors(5, 2, 23, -1, 0),
        "need q >= 0 and 0 <= j < a, got q=-1, j=0",
    ),
    "j-not-below-a": (
        lambda: interval_extra_divisors(5, 2, 23, 0, 5),
        "need q >= 0 and 0 <= j < a, got q=0, j=5",
    ),
    "empty-wagon": (
        lambda: wagon_pivot(5, 2, Configuration(23, ())),
        "wagon of an empty configuration",
    ),
}


@pytest.mark.parametrize("refusal", sorted(PRECONDITION_REFUSALS))
def test_every_precondition_refusal_takes_the_one_error_path(refusal, monkeypatch, capfd):
    call, message = PRECONDITION_REFUSALS[refusal]
    with pytest.raises(InvalidInput):
        call()
    monkeypatch.setattr(cli, "divisors", lambda *args: call())
    assert cli.main(["divisors", "--gens", "4,5", "--x", "9"]) == 2
    assert capfd.readouterr() == ("", f"error: {message}\n")


# one CLI argument refusal per check of the command layer, with its message;
# the two rho cases reach the walk's offset bound, which refuses before the
# walk's table exists
ARGUMENT_REFUSALS = {
    "gens-not-integers": (["number", "--gens", "9,x", "--r", "1"],
                          "cannot parse --gens '9,x' as comma-separated integers"),
    "r-not-integer": (["number", "--gens", "4,5", "--r", "abc"],
                      "cannot parse r range 'abc'; use N or lo..hi"),
    "r-range-empty": (["number", "--gens", "4,5", "--r", "3..1"],
                      "r range '3..1' is empty or starts below 1"),
    "r-below-1": (["number", "--gens", "4,5", "--r", "0"],
                  "r range '0' is empty or starts below 1"),
    "interval-not-a-pair": (["number", "--interval", "5", "--r", "1"],
                            "--interval needs exactly two integers a,b"),
    "amenable-r-range": (["amenable", "--gens", "4,5", "--r", "1..3"],
                         "amenable takes a single --r value"),
    "number-rho-above-limit": (
        ["number", "--gens", "1000,1001", "--r", "562", "--method", "generic"],
        "rho_562 = 33000 is above the limit of 32768",
    ),
    "amenable-rho-above-limit": (["amenable", "--gens", "1000,1001", "--r", "562"],
                                 "rho_562 = 33000 is above the limit of 32768"),
}


@pytest.mark.parametrize("refusal", sorted(ARGUMENT_REFUSALS))
def test_every_argument_refusal_exits_2_with_its_message(refusal, capfd):
    argv, message = ARGUMENT_REFUSALS[refusal]
    assert cli.main(argv) == 2
    assert capfd.readouterr() == ("", f"error: {message}\n")


def checkout_env():
    """The environment with this checkout's package first on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entry_point():
    # the package from this checkout, installed or not
    proc = subprocess.run(
        [sys.executable, "-m", "fengrao.cli", "divisors", "--gens", "4,5", "--x", "9"],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1:] == ["0", "4", "5", "9"]


def test_closed_pipe_exits_1_quietly():
    # like `fengrao grid ... | head -1`: millions of rows, the reader takes one
    proc = subprocess.Popen(
        [sys.executable, "-m", "fengrao.cli", "grid", "--amax", "200", "--bmax", "199",
         "--rmax", "50"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=checkout_env(),
    )
    assert proc.stdout.readline() == b"a,b,r,e,rho,rho_case\n"
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def test_deterministic_output(capsys):
    args = ["grid", "--amax", "6", "--bmax", "3", "--rmax", "8", "--format", "json"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


GOLDEN_COMMANDS = {
    "divisors_9_13_15_x60": ["divisors", "--gens", "9,13,15", "--x", "60"],
    "number_4_1_r1to5_all": [
        "number", "--interval", "4,1", "--r", "1..5", "--method", "all", "--no-timing",
    ],
    "grid_a6_b3_r8": ["grid", "--amax", "6", "--bmax", "3", "--rmax", "8"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_golden_outputs(name, fmt, capsys):
    argv = GOLDEN_COMMANDS[name] + ["--format", fmt]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    expected = (GOLDEN / f"{name}.{fmt}").read_bytes()
    assert out.encode() == expected


def main_outcome(argv, capsys):
    """Exit code, stdout and stderr of one cli.main call, argparse exits included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


HELP_ARGVS = [
    ["-h"],
    *[[name, "-h"] for name in ("divisors", "distance", "number", "grid", "amenable")],
]
REFUSED_ARGVS = [
    [],
    ["bogus"],
    ["num"],
    ["number", "--gens", "4,5"],
    ["number", "--gens", "4,5", "--interval", "4,1", "--r", "2"],
    ["number", "--gens", "4,5", "--r", "2", "--method", "fast"],
    ["number", "--gens", "4,5", "--r", "2", "--m", "x"],
    ["number", "--gens", "4,5", "--r", "2", "--foo"],
    ["divisors", "--gens", "4,5", "--x", "9", "stray"],
    ["grid", "--amax", "4", "--bmax", "2", "--rmax", "3", "--out"],
]
PARSE_CASES = [
    *HELP_ARGVS,
    *REFUSED_ARGVS,
    ["amenable", "--gens", "4,5", "--r", "2", "--foo", "-h"],
    ["number", "--interval", "4,1", "--r", "1..3", "--no-timing"],
    ["distance", "--gens", "4,5", "--r=2", "--m", "23", "--no-timing"],
    ["grid", "--amax", "4", "--bmax", "2", "--rmax", "3", "--format", "ascii"],
    ["amenable", "--gens", "4,5", "--r", "2", "--repr"],
    # read without argparse
    ["divisors", "--x", " 9", "--gens", "4,5", "--format", "json"],
    ["divisors", "--gens", "", "--x", "9"],
    ["number", "--gens", "4,5", "--r", "1..2", "--m", "+23", "--max-brute", "1_000",
     "--method", "all", "--no-timing"],
    ["distance", "--interval", "5,2", "--r", "3", "--m", "0", "--format", "ascii"],
    ["grid", "--rmax", "2", "--bmax", "1", "--amax", "3", "--format", "json"],
    ["amenable", "--interval", "4,1", "--r", "2", "--representatives", "--out", ""],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "no-args")
def test_command_parser_prints_what_the_whole_tree_prints(argv, monkeypatch, capsys):
    # main reads a well-formed request without argparse; the whole tree
    # must give the same exit code, stdout and stderr, byte for byte
    alone = main_outcome(argv, capsys)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
    assert main_outcome(argv, capsys) == alone


def test_help_and_errors_match_the_pin(monkeypatch, capsys):
    # argparse's help, usage and error text at 80 columns, byte for byte;
    # tests/cli_help.txt holds, per argv, the exit code, stdout and stderr
    monkeypatch.setenv("COLUMNS", "80")
    text = "".join(
        "$ fengrao {}\n[exit {}]\n{}[stderr]\n{}".format(
            " ".join(argv), *main_outcome(argv, capsys)
        )
        for argv in HELP_ARGVS + REFUSED_ARGVS
    )
    assert text == (Path(__file__).parent / "cli_help.txt").read_text()


def benchmark_argvs():
    """Every distinct command line the four workloads of bench/workloads.py send."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    expected = json.loads((bench / "expected.json").read_text())
    argvs = {
        tuple(request["argv"])
        for workload in workloads.WORKLOADS
        for request in workloads.build_requests(workload, 1, expected)
        if "argv" in request
    }
    return sorted(map(list, argvs))


# the golden requests in csv and json, the distance alias and an amenable
# listing, each with its stdout
FAST_REQUESTS = [
    (command + ["--format", fmt], (GOLDEN / f"{name}.{fmt}").read_text())
    for name, command in sorted(GOLDEN_COMMANDS.items())
    for fmt in ("csv", "json")
] + [
    (["distance", *GOLDEN_COMMANDS["number_4_1_r1to5_all"][1:]],
     (GOLDEN / "number_4_1_r1to5_all.csv").read_text()),
    (["amenable", "--gens", "4,5", "--r", "2"],
     "index,count,elements\n0,2,23 24\n1,2,23 25\n2,2,23 26\n3,2,23 27\n"),
]


def argparse_vars(parser, argv):
    """vars() of what the whole tree parses from argv, or None where it refuses argv.

    The command name, which the reader leaves out, is dropped.
    """
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = vars(parser.parse_args(argv))
    except SystemExit:
        return None
    del args["command"]
    return args


def read_request(argv):
    """What the command's reader reads from argv, or None where it declines."""
    return cli._read(argv[0], argv[1:])


def generated_argvs(name, rng, count):
    """Random orders and subsets of the command's options, with edge values."""
    options = cli._COMMANDS[name][2]
    edges = ["", "-5", "+7", " 8", "1_0", "x"]
    for _ in range(count):
        flags = [
            flag for flag, spec in options.items()
            if rng.random() < (0.9 if spec.get("required") else 0.4)
        ]
        rng.shuffle(flags)
        argv = [name]
        for flag in flags:
            spec = options[flag]
            argv.append(flag)
            if "choices" in spec:
                argv.append(rng.choice([*spec["choices"], "fast", ""]))
            elif spec.get("type") is int:
                argv.append(rng.choice(["3", "12", *edges]))
            elif spec.get("action") != "store_true":
                argv.append(rng.choice(["4,5", "1..3", *edges]))
        yield argv


# a well-formed request per command, and what the reader must decline on it
READ_BASES = {
    "divisors": ["divisors", "--gens", "4,5", "--x", "9"],
    "distance": ["distance", "--gens", "4,5", "--r", "2"],
    "number": ["number", "--gens", "4,5", "--no-timing", "--r", "2"],
    "grid": ["grid", "--amax", "4", "--bmax", "2", "--rmax", "3"],
    "amenable": ["amenable", "--gens", "4,5", "--r", "2"],
}
DECLINED_FORMS = [
    lambda base: base + base[1:3],  # a repeated option
    lambda base: base + ["--interval", "4,1"],
    lambda base: base[:-2],  # the required option given last is missing
    lambda base: base + ["--r=2"],
    lambda base: base + ["--repr"],
    lambda base: base + ["-h"],
    lambda base: base + ["--"],
    lambda base: base + ["--foo"],
    lambda base: base + ["--out"],
    lambda base: base + ["stray"],
]


def test_reader_gives_what_argparse_parses():
    # argparse is the reference: whatever the reader accepts, the whole tree
    # must parse to the same values, and the forms it leaves to argparse
    # must be declined
    parser = cli.build_parser()
    rng = random.Random(26)
    accepted = 0
    for name in cli._COMMANDS:
        for argv in generated_argvs(name, rng, 2000):
            args = read_request(argv)
            if args is not None:
                accepted += 1
                assert vars(args) == argparse_vars(parser, argv), argv
        for form in DECLINED_FORMS:
            argv = form(READ_BASES[name])
            assert read_request(argv) is None, argv
        assert vars(read_request(READ_BASES[name])) == argparse_vars(parser, READ_BASES[name])
    assert accepted >= 2000, accepted
    # the fast path serves the goldens and every benchmark request
    for argv in [argv for argv, _ in FAST_REQUESTS] + benchmark_argvs():
        args = read_request(argv)
        assert args is not None, argv
        assert vars(args) == argparse_vars(parser, argv), argv


def test_valid_requests_do_not_build_the_whole_tree(monkeypatch, capsys):
    def no_parser(*args, **kwargs):
        raise AssertionError("argparse parser built")

    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    for argv, out in FAST_REQUESTS:
        assert main_outcome(argv, capsys) == (0, out, ""), argv
    for argv in benchmark_argvs():
        assert cli._parse_args(argv).run in (cli._cmd_distance_like, cli._cmd_grid), argv
    # help, an unknown command and an unrecognized argument go to argparse
    for argv in (["-h"], ["bogus"], ["divisors", "--gens", "4,5", "--x", "9", "--foo"]):
        with pytest.raises(AssertionError, match="argparse parser built"):
            cli.main(argv)
