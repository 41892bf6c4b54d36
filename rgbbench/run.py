"""The repository benchmark: one command, three workloads, one JSON line.

Usage (from the repository root)::

    python3 rgbbench/run.py --workload churn_10k --seed 1 --seconds 20 --trace 0
    python3 rgbbench/run.py --workload all          # every workload, one process each

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics, timed in calibrated seconds (``calibrate.py``: wall seconds scaled
by a reference probe run beside the program, so host speed drift cancels).
``--trace 1`` runs it untraced and then traced, with the same inputs, and
reports the per-layer metrics of the traced pass plus the tracing overhead;
the spans are written to ``rgbbench/.out/``.  Either way the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``, and
the exit code is non-zero when a correctness gate failed.

Exact counts (events, sends, rounds, hops, visibility latencies) are printed
before the result and remembered per (workload, seed, blocks, code digest)
under ``rgbbench/.out/``; a later run of the same code and seed that counts
differently is flagged and counted as a failed operation.
"""

from __future__ import annotations

import os

# One thread per workload process: nothing below may fan out to a pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / ".out"


def code_digest() -> str:
    """Digest of the program and benchmark sources (keys the count memory)."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_determinism(memory: Path, key: str, counts: Dict[str, float]) -> Optional[str]:
    """Compare with the counts an earlier run stored under ``memory/key``."""
    path = memory / f"{key}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        if previous != counts:
            diff = {k: (previous.get(k), v) for k, v in counts.items() if previous.get(k) != v}
            return f"exact counts differ from an earlier run of the same seed and code: {diff}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    tmp.replace(path)
    return None


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import calibrate
    import tracing
    import workloads

    if name not in workloads.WORKLOADS:
        print(f"error: unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[name]
    blocks = workloads.blocks_for(workload, seconds)
    # Probes only time the untraced run; in a traced one they would land in spans.
    clock = calibrate.HostClock(enabled=not trace)
    tally = workloads.run_pass(workload, seed, blocks, clock=clock)
    counts = workloads.exact_counts(tally)
    print(f"{name}: seed={seed} blocks={blocks} exact counts "
          f"{json.dumps(counts, sort_keys=True)}")
    attempted, failed, failures = tally.attempted, tally.failed, list(tally.failures)
    mismatch = check_determinism(OUT / "counts", f"{name}-{seed}-{blocks}-{code_digest()}", counts)
    if mismatch:
        failed += 1
        failures.append(mismatch)

    if trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer) as suspended:
            traced = workloads.run_pass(workload, seed, blocks, suspended)
        tracer.dump(OUT / "traces" / f"{name}-{seed}.npz")
        attempted += traced.attempted
        failed += traced.failed
        failures.extend(traced.failures)
        if workloads.exact_counts(traced) != counts:
            failed += 1
            failures.append("traced pass counted differently from the untraced pass")
        metrics = workloads.per_layer(traced, tracer, tally)
    else:
        metrics = workloads.end_to_end(tally, clock)
        reported = {**workloads.wall_clock(tally), **workloads.reads_and_visibility(tally)}
        reported["probe_mean_ms"] = (1e3 * clock.probe_s / clock.probes, "ms")
        for metric, (value, unit) in reported.items():
            print(f"  {metric:<28} {value:>16.6f} {unit}  (reported, no bound)")

    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<28} {value:>16.6f} {unit}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process; a summary table at the end."""
    names = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    status = 0
    rows: List[str] = []
    for entry in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if not lines:
            rows.append(f"{entry['name']}: no result (exit {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        rows.append(f"{entry['name']}: attempted={result['attempted']} failed={result['failed']}")
    print("\n".join(rows))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
