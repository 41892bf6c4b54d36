"""Tiny-size smoke tests of the benchmark, through its own code path.

Run from the repository root::

    python3 -m pytest rgbbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "churn_10k": replace(
        workloads.WORKLOADS["churn_10k"], height=3, changes=8, rate=0.3, crashes=2
    ),
    "serve_100k": replace(workloads.WORKLOADS["serve_100k"], height=3, changes=3, read_batches=20),
    "propagate_1m": replace(workloads.WORKLOADS["propagate_1m"], height=3),
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(TINY))
def test_gates_pass_on_the_current_tree(name):
    tally = workloads.run_pass(TINY[name], seed=3, blocks=2)
    assert tally.failed == 0, tally.failures
    assert tally.attempted >= tally.changes > 0
    assert (tally.queries > 0) == (getattr(TINY[name], "read_batches", 0) > 0)


@pytest.mark.parametrize("name", sorted(TINY))
def test_a_wrong_expectation_trips_the_gates(name, monkeypatch):
    if name == "propagate_1m":
        monkeypatch.setattr(workloads, "hcn_ring", lambda h, r: 1)
    else:
        real = workloads.expected_members
        monkeypatch.setattr(workloads, "expected_members", lambda c: real(c) | {"ghost"})
    tally = workloads.run_pass(TINY[name], seed=3, blocks=1)
    assert tally.failed >= 1
    assert tally.failures


def test_same_seed_gives_identical_exact_counts():
    first = workloads.exact_counts(workloads.run_pass(TINY["churn_10k"], seed=5, blocks=1))
    second = workloads.exact_counts(workloads.run_pass(TINY["churn_10k"], seed=5, blocks=1))
    other = workloads.exact_counts(workloads.run_pass(TINY["churn_10k"], seed=6, blocks=1))
    assert first == second
    assert first != other


def test_count_memory_flags_a_difference(tmp_path):
    counts = {"kernel.rounds": 10, "engine.events": 99}
    assert run.check_determinism(tmp_path, "k", counts) is None
    assert run.check_determinism(tmp_path, "k", counts) is None
    assert "kernel.rounds" in run.check_determinism(tmp_path, "k", {**counts, "kernel.rounds": 11})


@pytest.mark.parametrize("name", ["churn_10k", "propagate_1m"])
def test_spans_nest_and_self_times_are_non_negative(name):
    tracer = tracing.Tracer()
    originals = [tracing._resolve(m, p) for m, p, _ in tracing.LAYER_CALLS]
    before = [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
              for owner, attr in originals]
    with tracing.installed(tracer) as suspended:
        tally = workloads.run_pass(TINY[name], seed=2, blocks=1, untraced=suspended)
    after = [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
             for owner, attr in originals]
    assert before == after, "layer functions must be restored after the traced pass"
    assert tally.failed == 0, tally.failures

    spans = len(tracer.start)
    assert spans > 0
    self_ns = tracer.self_times_ns()
    assert min(self_ns) >= 0
    for i in range(spans):
        assert tracer.end[i] >= tracer.start[i]
        parent = tracer.parent[i]
        if parent >= 0:
            assert parent < i
            assert tracer.start[parent] <= tracer.start[i] <= tracer.end[i] <= tracer.end[parent]
    summary = tracer.summary()
    assert sum(calls for calls, _, _ in summary.values()) == spans
    assert sum(self_ns) == round(tracer.root_seconds() * 1e9)
    # Top-level spans cover the measured wall time (the gates run untraced).
    assert 0.9 < tracer.root_seconds() / tally.wall_s <= 1.0


def test_metric_names_match_the_contract():
    clock = calibrate.HostClock()
    untraced = workloads.run_pass(TINY["serve_100k"], seed=1, blocks=1, clock=clock)
    assert clock.probes > 2
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as suspended:
        traced = workloads.run_pass(TINY["serve_100k"], seed=1, blocks=1, untraced=suspended)
    e2e = workloads.end_to_end(untraced, clock)
    layers = workloads.per_layer(traced, tracer, untraced)
    for metrics, section in ((e2e, "end_to_end"), (layers, "per_layer")):
        assert all(NAME.match(m) for m in metrics)
        declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
        assert {m: unit for m, (_, unit) in metrics.items()} == declared
    assert all(value > 0 for value, _ in e2e.values())
    # Every query acquires one frame; the ones that had to capture are
    # booked as serving.capture, and the rest were reused.
    assert layers["serving.acquire_calls"][0] == traced.queries
    assert layers["serving.capture_s"][0] > 0
    assert 0 < layers["serving.reuse_ratio"][0] < 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(
        BENCH_DIR, tmp_path / "rgbbench", ignore=shutil.ignore_patterns(".out", "__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "churn_10k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _busy(seconds: float) -> None:
    until = calibrate.time.perf_counter() + seconds
    while calibrate.time.perf_counter() < until:
        sum(range(200))


def test_host_clock_probes_beside_the_work_and_leaves_no_trace():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    clock = calibrate.HostClock()
    assert clock.footprint_mb > 0
    probed = clock.probe_s
    started = calibrate.time.perf_counter()
    with clock.timing() as timed:
        _busy(0.7)
    elapsed = calibrate.time.perf_counter() - started
    assert timed.probes >= 3  # one per interval, one closing the block
    # Probe time is left out of the wall seconds and is all that is left out.
    assert timed.wall_s == pytest.approx(elapsed - (clock.probe_s - probed), rel=0.05)
    assert timed.calibrated_s > 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_held_defers_probes_to_the_end_of_the_block():
    clock = calibrate.HostClock()
    with clock.timing() as timed:
        with clock.held():
            _busy(0.5)
            assert timed.probes == 0
        assert timed.probes == 1  # the one that fell due inside
    assert timed.probes == 2


def test_disabled_clock_times_plain_wall_seconds():
    clock = calibrate.HostClock(enabled=False)
    with clock.timing() as timed:
        _busy(0.05)
    assert timed.probes == 0 and clock.footprint_mb == 0
    assert timed.calibrated_s == timed.wall_s >= 0.05


def test_every_seed_gets_the_same_gap_distribution():
    sites = [f"ap{i}" for i in range(50)]
    first = workloads.churn_schedule(workloads.random.Random(1), sites, 40, 0.0, 1.0)
    other = workloads.churn_schedule(workloads.random.Random(2), sites, 40, 0.0, 1.0)

    def gaps(changes):
        times = [0.0] + [c.time for c in changes]
        return sorted(round(b - a, 9) for a, b in zip(times, times[1:]))

    assert gaps(first) == gaps(other)
    assert [c.guid for c in first] != [c.guid for c in other] or \
        [c.ap for c in first] != [c.ap for c in other]
