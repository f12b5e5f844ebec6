"""One pass of a workload in a fresh interpreter; run.py starts it.

    python3 bench/child.py '<json config>'

The config names the checkout root, the workload, the seed, whether to
trace, and where to write spans.  The child imports fengrao from
``<root>/src``, builds its requests against ``expected.json`` beside this
file, and notes the moment it is ready (the end of set-up).  It then runs
and times every request, checks the answers and prints one JSON object on
its last stdout line.

While the requests run, a timer signal interrupts them every SAMPLE_EVERY_S
to time ``reference_work``, a fixed routine of the benchmark's own that
never changes with fengrao.  These samples measure how fast the machine
runs Python; the time they take is left out of every reported time.  A
sample is also taken just before and just after the requests, so that even
a pass shorter than SAMPLE_EVERY_S has two.  The pass's ``speed`` is the
mean of REFERENCE_S / sample time over the pass, and each request's speed
the same mean over the samples taken within LOCAL_S of it.  run.py
multiplies times by them, which scales them to the speed at which
reference_work takes REFERENCE_S.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The machine's speed changes within fractions of a second, so it is
# sampled often and briefly: one sample costs about 1.5 ms, 3% of a pass.
SAMPLE_EVERY_S = 0.05
# The speed changes faster than a pass lasts, so a request is scaled by
# the samples taken during it or this close to it.
LOCAL_S = 0.1
# reference_work() on an uncontended 2.1 GHz Xeon VM, Python 3.11
REFERENCE_S = 0.00125


def reference_work() -> int:
    """A fixed search in the style of fengrao: tuples grown depth first,
    deduplicated by a frozenset key.  Same work on every call."""
    seen: dict[frozenset, int] = {}
    stack = [(0,)]
    while stack:
        offsets = stack.pop()
        if len(offsets) < 7:
            last = offsets[-1]
            for nxt in range(last + 1, min(40, last + 4)):
                stack.append(offsets + (nxt,))
        key = frozenset(x % 7 for x in offsets)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


class SpeedSampler:
    """Times reference_work on every SIGALRM while it is started."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.taken_at: list[float] = []
        self.spent = 0.0  # wall time taken by sampling, to leave out

    def sample(self, signum=None, frame=None) -> None:
        # A collection started inside the sample would traverse fengrao's
        # heap and be taken for a slow machine; reference_work makes no cycles.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_work()
        took = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.samples.append(took)
        self.taken_at.append(t0)
        self.spent += took

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def speed(self, lo: float = float("-inf"), hi: float = float("inf")) -> float | None:
        """Mean of REFERENCE_S / sample time over the samples taken in [lo, hi]."""
        rates = [REFERENCE_S / t for t, at in zip(self.samples, self.taken_at) if lo <= at <= hi]
        return sum(rates) / len(rates) if rates else None


def steal_seconds() -> float | None:
    """Time the hypervisor has taken from this machine's CPUs, if known."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _run_cli(argv: list[str]) -> dict:
    import fengrao.cli  # attribute lookups at call time see the tracer's wrappers

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = fengrao.cli.main(argv)
    except SystemExit as exc:  # argparse exits on a usage error
        rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "stdout": buf.getvalue()}


def _run_window(gens: list[int], lo: int, hi: int) -> dict:
    import fengrao

    sgp = fengrao.from_generators(gens)
    return {"sets": [fengrao.divisors(sgp, x) for x in range(lo, hi + 1)]}


def execute(request: dict) -> dict:
    try:
        if request["kind"] == "window":
            return _run_window(request["gens"], *request["xs"])
        return _run_cli(request["argv"])
    except Exception as exc:  # a failed request is counted, the pass goes on
        return {"error": f"{type(exc).__name__}: {exc}"}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    root = Path(cfg["root"])
    sys.path.insert(0, str(root / "src"))
    import fengrao.cli  # noqa: F401  (every layer module, as a CLI user loads them)
    import workloads

    expected = json.loads((HERE / "expected.json").read_text())
    requests = workloads.build_requests(cfg["workload"], cfg["seed"], expected, cfg["amax"])
    ready = time.monotonic()

    tracer = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    answers, latencies, spans = [], [], []
    sampler = SpeedSampler()
    steal_start = steal_seconds()
    sampler.start()
    cpu_start, start, spent_start = time.process_time(), time.perf_counter(), sampler.spent
    for request in requests:
        t0, spent0 = time.perf_counter(), sampler.spent
        answers.append(execute(request))
        t1 = time.perf_counter()
        latencies.append(t1 - t0 - (sampler.spent - spent0))
        spans.append((t0, t1))
    spent = sampler.spent - spent_start
    wall = time.perf_counter() - start - spent
    cpu = time.process_time() - cpu_start - spent
    sampler.stop()
    steal_end = steal_seconds()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    speed = sampler.speed()
    request_speed = [sampler.speed(t0 - LOCAL_S, t1 + LOCAL_S) or speed for t0, t1 in spans]

    failures = []
    output_bytes = 0
    for request, answer in zip(requests, answers):
        if "sets" in answer:
            sets = answer.pop("sets")
            answer["counts"] = [len(s) for s in sets]
            answer["divisor_sum"] = sum(sum(s.elements) for s in sets)
        output_bytes += len(answer.get("stdout", "").encode())
        try:
            reason = workloads.check(request, answer, expected)
        except (KeyError, ValueError, TypeError) as exc:  # output in an unknown shape
            reason = f"unreadable answer ({type(exc).__name__}: {exc})"
        if reason is not None:
            failures.append(f"{request.get('argv') or request['gens']}: {reason}")

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "steal_s": None if steal_start is None or steal_end is None else steal_end - steal_start,
        "speed": speed,
        "request_speed": request_speed,
        "reference_s": sampler.samples,
        "latencies_ms": [t * 1000.0 for t in latencies],
        "peak_rss_mb": rss_kb / 1024.0,
        "attempted": len(requests),
        "failures": failures,
    }
    if tracer is not None:
        result["layers"], result["absent"] = tracer.metrics()
        result["layers"]["cli.output_bytes"] = output_bytes
        if cfg.get("spans"):
            tracer.write_spans(Path(cfg["spans"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
