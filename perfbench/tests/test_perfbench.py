"""Tests of the benchmark itself: oracles, seeding, tracer hygiene, span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import time

import pytest

import lpcoset
import pace
import run
import tracer as tracing
import workloads
from conftest import BENCH

ROOT = os.path.dirname(BENCH)


def small_job(counts=workloads.GRIGORCHUK_COUNTS):
    return workloads.LowIndexJob("small", "grigorchuk", 4, 1, counts, workloads.GRIGORCHUK_NORMAL)


def run_one_round(wl, state, seed=0, tracer=None):
    outcome = run.Outcome()
    rounds = [next(wl.stream(state, seed))]
    run.run_rounds(lpcoset, wl, state, rounds, outcome, tracer)
    return outcome


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# --- oracles ------------------------------------------------------------------


def test_low_index_oracle_accepts_the_known_counts():
    wl = small_job()
    outcome = run_one_round(wl, wl.setup())
    assert outcome.attempted == 1 and outcome.failures == []


def test_low_index_oracle_flags_a_wrong_expected_count():
    wrong = {**workloads.GRIGORCHUK_COUNTS, 4: 30}
    wl = small_job(wrong)
    outcome = run_one_round(wl, wl.setup())
    assert len(outcome.failures) == 1
    assert "index 4: got 31, expected 30" in outcome.failures[0]
    # a wrong answer keeps its latency
    assert len(outcome.latencies) == 1 and outcome.latencies[0] > 0


def test_burnside_oracle_flags_a_wrong_index():
    wl = workloads.BurnsideEscalation()
    state = wl.setup()
    result = wl.execute(state, (1, 3, "1", 3))
    assert wl.verify(state, (1, 3, "1", 3), result) is None
    assert "expected 5" in wl.verify(state, (1, 3, "1", 5), result)


def test_library_errors_count_as_failures():
    state = workloads.BurnsideEscalation().setup()
    # a coset ceiling below what B(1,3) needs makes the library give up
    outcome = run.Outcome()

    class Capped(workloads.BurnsideEscalation):
        def execute(self, state, op):
            n, m, gens, _ = op
            config = lpcoset.EnumerationConfig(initial_max_cosets=8, hard_ceiling=8)
            lp, spec = state["groups"][(n, m)], state["specs"][(n, m, gens)]
            return lpcoset.enumerate_cosets(lp, spec, config)

    run.run_rounds(lpcoset, Capped(), state, [[(1, 3, "1", 3)]], outcome)
    assert outcome.attempted == 1
    assert "GaveUp" in outcome.failures[0]


def test_independent_oracles():
    s3 = [(1, 0, 2), (1, 2, 0)]
    assert workloads.perm_group_order(s3) == 6
    u = ((2, 2), (1, 1))  # one generator swapping two cosets
    v = ((1, 1), (2, 2))  # acting trivially
    assert workloads.pair_orbit_size(u, u, 1) == 2
    assert workloads.pair_orbit_size(u, v, 1) == 2


# --- seeding ------------------------------------------------------------------


def first_rounds(wl, state, seed, n=3):
    stream = wl.stream(state, seed)
    return repr([next(stream) for _ in range(n)]).encode()


@pytest.mark.parametrize("name", ["subgroup-queries", "burnside-escalation"])
def test_same_seed_gives_byte_identical_stream(name):
    wl = workloads.WORKLOADS[name]
    first = first_rounds(wl, wl.setup(), seed=7)
    assert first_rounds(wl, wl.setup(), seed=7) == first
    assert first_rounds(wl, wl.setup(), seed=8) != first


def test_rounds_hold_a_fixed_multiset():
    wl = workloads.WORKLOADS["subgroup-queries"]
    state = wl.setup()
    for ops in [next(wl.stream(state, seed)) for seed in range(3)]:
        assert sorted(op[0] for op in ops) == sorted(wl.ROUND)


# --- tracer -------------------------------------------------------------------


def current(point):
    module_name, path, _, _ = point
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_and_restores_every_attribute():
    before = [current(p) for p in tracing.PATCH_POINTS]
    t = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with t.installed():
            assert all(current(p) is not b for p, b in zip(tracing.PATCH_POINTS, before))
            1 / 0
    assert all(current(p) is b for p, b in zip(tracing.PATCH_POINTS, before))


def test_tracer_fails_loudly_on_a_missing_attribute_and_restores():
    before = [current(p) for p in tracing.PATCH_POINTS]
    points = tracing.PATCH_POINTS + (("lpcoset.pipeline", "no_such_function", "x", None),)
    with pytest.raises(tracing.TracerError, match="no_such_function"):
        tracing.Tracer().install(points)
    assert all(current(p) is b for p, b in zip(tracing.PATCH_POINTS, before))


def test_classmethod_patch_keeps_binding():
    t = tracing.Tracer()
    wl = small_job()
    with t.installed():
        outcome = run_one_round(wl, wl.setup(), tracer=t)
    assert outcome.failures == []
    assert any(s.name == "subgroups.from_table" for s in t.spans)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_times_sum_to_the_root_span():
    t = tracing.Tracer(clock=FakeClock())
    leaf = t.wrap(lambda: None, "leaf")
    mid = t.wrap(lambda: (leaf(), leaf()), "mid")
    with t.span("root"):
        mid()
        leaf()
    selfs = tracing.self_times(t.spans)
    root = t.spans[0]
    assert root.parent == -1
    assert sum(selfs) == root.duration
    assert all(s > 0 for s in selfs)


def test_self_times_sum_to_the_root_span_on_a_real_job():
    t = tracing.Tracer()
    wl = small_job()
    with t.installed():
        run_one_round(wl, wl.setup(), tracer=t)
    roots = [s for s in t.spans if s.parent == -1]
    assert len(roots) == 1 and len(t.spans) > 10
    assert sum(tracing.self_times(t.spans)) == pytest.approx(roots[0].duration, rel=1e-9)


def test_deterministic_counts_repeat_between_runs():
    wl = small_job()
    state = wl.setup()
    counts = []
    for _ in range(2):
        t = tracing.Tracer()
        with t.installed():
            run_one_round(wl, state, tracer=t)
        m = tracing.layer_metrics(t.spans)
        counts.append({k: v for k, (v, unit) in m.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["subgroups.low_index.candidates"] > 0
    assert counts[0]["perms.image_group.elements"] > 0


# --- speed correction ---------------------------------------------------------


def test_pacer_samples_during_the_block_and_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with pace.Pacer() as pacer:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(pacer.times) >= 5 and pacer.spent > 0
    assert pacer.speed(t0, t1) > 0


def test_speed_is_the_mean_over_the_window_or_the_nearest_sample():
    pacer = pace.Pacer()
    pacer.times = [1.0, 2.0, 3.0, 10.0]
    pacer.speeds = [1.0, 0.5, 0.6, 0.9]
    assert pacer.speed(1.9, 2.1) == 0.5
    assert pacer.speed(1.2, 2.8) == pytest.approx((1.0 + 0.5 + 0.6) / 3)
    assert pacer.speed(6.0, 6.5) == 0.9


def test_measured_latencies_exclude_kernel_time_and_are_corrected():
    wl = small_job()
    outcome, wall = run.measure(lpcoset, wl, wl.setup(), seed=0, seconds=0.3)
    assert outcome.failures == [] and outcome.attempted >= 1
    raw = sum(t1 - t0 for t0, t1 in outcome.spans)
    assert 0 < wall < raw
    assert sum(outcome.round_times) == pytest.approx(sum(outcome.latencies))


# --- agreement with BENCHMARK.json ---------------------------------------------


def test_reported_metrics_match_benchmark_json():
    spec = benchmark_spec()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    wl = small_job()
    state = wl.setup()
    outcome, wall = run.measure(lpcoset, wl, state, seed=0, seconds=1e-9)
    e2e, _ = run.end_to_end(outcome, setup_s=1e-3, wall=wall)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    _, layers, _ = run.traced(lpcoset, wl, state, seed=0, seconds=1e-9)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (_, u) in layers.items()
    }


def test_tail_is_the_highest_percentile_with_ten_beyond_else_the_median():
    p, value, beyond = run.tail([float(i) for i in range(1, 2001)])
    assert (p, beyond) == (99, 20) and value == pytest.approx(1980.01)
    assert run.tail([float(i) for i in range(1, 101)])[:2] == (90, 90.1)
    assert run.tail([float(i) for i in range(1, 51)])[0] == 50
    p, value, beyond = run.tail([float(i) for i in range(1, 6)])
    assert (p, value, beyond) == (50, 3.0, 2)


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    spec = benchmark_spec()
    argv = spec["command"] + ["--workload", "burnside-escalation", "--seed", "1",
                              "--seconds", "1", "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_setup_is_timed_in_fresh_interpreters():
    times = run.timed_setup("burnside-escalation")
    assert len(times) >= run.SETUP_MIN_REPEATS
    assert all(0 < t < 60 for t in times)
