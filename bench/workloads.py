"""The four benchmark workloads: their requests and the checks on the answers.

A request is either a ``fengrao`` command line, run in-process through
``fengrao.cli.main`` with stdout captured, or a library divisor window
(``from_generators`` once, then ``divisors`` for every x in the window).
Inputs are enumerated; the seed only sets the order of the requests.

Every answer is compared with ``expected.json`` beside this file, which
``gen_expected.py`` writes once from two independent methods that agree.
"""

from __future__ import annotations

import csv
import io
import random

WORKLOADS = ("interval-grid", "deep-r", "wide-ground", "corpus-oracle")

# Largest multiplicity among the corpus members sent to brute force.
ORACLE_MAX_MULTIPLICITY = 9
ORACLE_RMAX = 7
# The divisor window is [2c-1, 2c-1 + WINDOW_SPAN * n_e].
WINDOW_SPAN = 8

DEEP_R = (14, 1, 14)  # (a, b, rmax)
WIDE_GROUND = (16, 8, 14)
GRID_RMAX = 12

# Copy of the non-interval test corpus (tests/corpus.py), so that the
# benchmark does not move when the tests do.
CORPUS: list[tuple[int, ...]] = [
    (1,),
    (2, 3),
    (3, 4),
    (3, 5),
    (3, 7),
    (4, 5),
    (4, 6, 7),
    (4, 7, 9),
    (5, 6, 7),
    (5, 7, 9),
    (5, 8),
    (6, 7, 8, 9),
    (6, 10, 15),
    (7, 8),
    (7, 10, 12),
    (8, 9, 10, 11, 12),
    (9, 13, 15),
    (10, 11, 12, 13, 14, 15, 16, 17, 18, 19),
    (11, 13),
    (12, 13, 14, 15, 16, 17),
    (13, 14, 15),
    (19, 20, 21, 22, 23),
]


def gens_key(gens: tuple[int, ...]) -> str:
    return ",".join(map(str, gens))


def _number(a: int, b: int, rmax: int) -> dict:
    return {
        "kind": "number",
        "key": f"{a},{b}",
        "argv": ["number", "--interval", f"{a},{b}", "--r", f"1..{rmax}",
                 "--method", "generic", "--no-timing"],
    }


def build_requests(workload: str, seed: int, expected: dict, amax: int = 12) -> list[dict]:
    """The requests of one pass, in the order the seed picks."""
    if workload == "interval-grid":
        requests = [_number(a, b, GRID_RMAX) for a in range(2, amax + 1) for b in range(1, a)]
        requests.append({
            "kind": "grid",
            "argv": ["grid", "--amax", str(amax), "--bmax", str(amax - 1),
                     "--rmax", str(GRID_RMAX)],
        })
    elif workload == "deep-r":
        requests = [_number(*DEEP_R)]
    elif workload == "wide-ground":
        requests = [_number(*WIDE_GROUND)]
    elif workload == "corpus-oracle":
        requests = []
        for gens in CORPUS:
            key = gens_key(gens)
            ref = expected["corpus"][key]
            if gens[0] <= ORACLE_MAX_MULTIPLICITY:
                requests.append({
                    "kind": "oracle",
                    "key": key,
                    "argv": ["number", "--gens", key, "--r", f"1..{ORACLE_RMAX}",
                             "--method", "all", "--no-timing"],
                })
            lo = max(2 * ref["conductor"] - 1, 0)
            requests.append({
                "kind": "window",
                "key": key,
                "gens": list(gens),
                "xs": [lo, lo + WINDOW_SPAN * ref["largest_generator"]],
            })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(requests)
    return requests


def check(request: dict, answer: dict, expected: dict) -> str | None:
    """None when the answer is right, else a one-line reason."""
    if "error" in answer:
        return answer["error"]
    kind = request["kind"]
    if kind == "window":
        ref = expected["corpus"][request["key"]]
        lo, hi = request["xs"]
        counts, total = answer["counts"], answer["divisor_sum"]
        for x, n in zip(range(lo, hi + 1), counts):
            if n != x + 1 - 2 * ref["genus"]:
                return f"#D({x}) = {n}, counting law gives {x + 1 - 2 * ref['genus']}"
        if len(counts) != hi - lo + 1:
            return f"{len(counts)} divisor sets for a window of {hi - lo + 1}"
        if total != ref["divisor_sum"]:
            return f"divisor sum {total}, expected {ref['divisor_sum']}"
        return None
    if answer["rc"] != 0:
        return f"exit code {answer['rc']}"
    rows = list(csv.DictReader(io.StringIO(answer["stdout"])))
    if kind == "grid":
        amax = int(request["argv"][request["argv"].index("--amax") + 1])
        got = {(int(row["a"]), int(row["b"]), int(row["r"])): int(row["e"]) for row in rows}
        want = {
            (a, b, r): e
            for key, values in expected["interval"].items()
            for a, b in [map(int, key.split(","))]
            if a <= amax
            for r, e in enumerate(values[:GRID_RMAX], start=1)
        }
        wrong = len(set(got.items()) ^ set(want.items()))
        return None if wrong == 0 else f"grid differs from expected on {wrong} cells"
    ref = expected["interval"][request["key"]] if kind == "number" else expected["corpus"][request["key"]]["e"]
    columns = ("e",) if kind == "number" else ("e_generic", "e_brute", "e_interval")
    if [int(row["r"]) for row in rows] != list(range(1, len(ref) + 1)):
        return f"rows for r = {[row['r'] for row in rows]}"
    for row in rows:
        for col in columns:
            value = row.get(col)
            if value in (None, "-") and col == "e_interval":
                continue
            if value is None or int(value) != ref[int(row["r"]) - 1]:
                return f"r={row['r']} {col}={value}, expected {ref[int(row['r']) - 1]}"
    return None
