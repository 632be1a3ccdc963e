"""lpcoset benchmark: one seeded workload per process, single-threaded.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/`` next to
this directory.  With ``--trace 0`` the workload runs whole rounds until
``--seconds`` have passed and the end-to-end metrics are reported, with
every time corrected for the machine's changing speed (``pace.py``).  With
``--trace 1`` a fixed block of rounds runs alternately without and with
span tracing until ``--seconds`` have passed, and the per-layer metrics of
the traced passes are reported.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from pace import Pacer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# set-up runs in fresh interpreters, in two batches, one before and one
# after the measured rounds: a batch runs at least 3 probes and more while
# it has taken under 2.5 s, and the median of all probes is reported.  The
# corrected set-up time of one probe scatters by about 10%, and batches a
# few seconds apart differ by as much, so the batches are spread over the run
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 12
SETUP_BUDGET_S = 2.5
# the tail is the highest of these percentiles with enough samples beyond it
TAIL_PERCENTILES = (99, 90, 50)
TAIL_BEYOND = 10


def import_library():
    """Import lpcoset from this checkout's sources, never from elsewhere."""
    init = os.path.join(SRC, "lpcoset", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import lpcoset

    if os.path.realpath(lpcoset.__file__) != os.path.realpath(init):
        sys.exit(f"perfbench: imported lpcoset from {lpcoset.__file__}, not {init}")
    return lpcoset


def percentile(sorted_xs: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    if len(sorted_xs) == 1:
        return sorted_xs[0]
    pos = (len(sorted_xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest of p99 and p90 with at least ten samples beyond it, else the
    median.  Returns (percentile, value, samples beyond)."""
    xs = sorted(latencies)
    for p in TAIL_PERCENTILES:
        v = percentile(xs, p)
        beyond = sum(1 for x in xs if x > v)
        if beyond >= TAIL_BEYOND or p == 50:
            return p, v, beyond


class Outcome:
    """Latencies and failures of the operations a run executed."""

    def __init__(self):
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []  # clock at start and end
        self.round_sizes: list[int] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def round_times(self) -> list[float]:
        times, i = [], 0
        for n in self.round_sizes:
            times.append(sum(self.latencies[i:i + n]))
            i += n
        return times


def run_rounds(lib, wl, state, rounds, outcome: Outcome, tracer=None, pacer=None) -> float:
    """Execute and verify each operation; return the summed operation time.

    Only the library call is timed, less the reference kernel time the
    pacer spent inside it; a call that raises a library error or gives a
    wrong answer counts as failed, and its time still counts.
    """
    busy = 0.0
    for ops in rounds:
        for op in ops:
            spent = pacer.spent if pacer else 0.0
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = wl.execute(state, op)
                else:
                    with tracer.span("bench.op"):
                        result = wl.execute(state, op)
            except (lib.LpcosetError, RuntimeError) as exc:
                t1 = time.perf_counter()
                bad = f"{op!r}: {type(exc).__name__}: {exc}"
            else:
                t1 = time.perf_counter()
                bad = wl.verify(state, op, result)
            dt = t1 - t0 - ((pacer.spent - spent) if pacer else 0.0)
            outcome.latencies.append(dt)
            outcome.spans.append((t0, t1))
            busy += dt
            if bad is not None:
                outcome.failures.append(bad)
        outcome.round_sizes.append(len(ops))
    return busy


def timed_setup(name: str) -> list[float]:
    """One batch of set-up times: import lpcoset and build the workload's
    state in fresh interpreters."""
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), name]
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPEATS or (
        len(times) < SETUP_MAX_REPEATS and time.perf_counter() - start < SETUP_BUDGET_S
    ):
        proc = subprocess.run(probe, capture_output=True, text=True, timeout=170, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def measure(lib, wl, state, seed: int, seconds: float) -> tuple[Outcome, float]:
    """Whole rounds of the seeded stream until ``seconds`` have passed.

    Returns the outcome, with latencies corrected to reference speed, and
    the summed wall time of the operations before the correction.
    """
    outcome = Outcome()
    with Pacer() as pacer:
        start = time.perf_counter()
        for ops in wl.stream(state, seed):
            run_rounds(lib, wl, state, [ops], outcome, pacer=pacer)
            if time.perf_counter() - start >= seconds:
                break
    wall = sum(outcome.latencies)
    outcome.latencies = [
        dt * pacer.speed(t0, t1) for dt, (t0, t1) in zip(outcome.latencies, outcome.spans)
    ]
    return outcome, wall


def end_to_end(outcome: Outcome, setup_s: float, wall: float) -> tuple[dict, list[str]]:
    lat = outcome.latencies
    times = outcome.round_times
    p, tail_v, beyond = tail(lat)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s": (statistics.median(times), "s"),
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "query_ms.p50": (1e3 * statistics.median(lat), "ms"),
        "query_ms.tail": (1e3 * tail_v, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [
        f"query_ms.tail is p{p} with {beyond} samples beyond it, of {len(lat)}",
        f"failed_frac {len(outcome.failures) / len(lat):.6g} fraction "
        f"({len(outcome.failures)} of {len(lat)} operations)",
        f"solve_s is the median of {len(times)} rounds "
        f"(fastest {min(times):.4g} s, slowest {max(times):.4g} s)",
        f"times are at reference speed; the machine ran at {sum(lat) / wall:.3f} of it, "
        f"so the operations took {wall:.4g} s of wall time for {sum(lat):.4g} s",
    ]
    return metrics, notes


def traced(lib, wl, state, seed: int, seconds: float):
    """Alternate untraced and traced passes over the first rounds of the stream.

    Counts come from the first traced pass, so they repeat exactly for a
    seed; times are medians over the traced passes.
    """
    from tracer import Tracer, layer_metrics, self_shares

    stream = wl.stream(state, seed)
    block = [next(stream) for _ in range(wl.trace_rounds)]
    outcome = Outcome()
    plain, passes, shares = [], [], None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain.append(run_rounds(lib, wl, state, block, outcome))
        tracer = Tracer()
        with tracer.installed():
            busy = run_rounds(lib, wl, state, block, outcome, tracer)
        passes.append((busy, layer_metrics(tracer.spans)))
        if shares is None:
            shares = self_shares(tracer.spans)
    first = passes[0][1]
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median(p[1][name][0] for p in passes)
        metrics[name] = (value, unit)
    overhead = statistics.median(p[0] for p in passes) / statistics.median(plain) - 1
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    notes = [f"{len(passes)} traced passes of {wl.trace_rounds} rounds; self-time shares:"]
    notes += [f"  {share:7.2%}  {name}" for name, share in shares.items()]
    return outcome, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    lib = import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    state = wl.setup()
    if args.trace:
        outcome, metrics, notes = traced(lib, wl, state, args.seed, args.seconds)
    else:
        setups = timed_setup(wl.name)
        outcome, wall = measure(lib, wl, state, args.seed, args.seconds)
        setups += timed_setup(wl.name)
        metrics, notes = end_to_end(outcome, statistics.median(setups), wall)
        notes.append(f"setup_s is the median of {len(setups)} fresh interpreters")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{outcome.attempted} operations, {len(outcome.failures)} failed")
    for line in outcome.failures[:10]:
        print(f"  FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
