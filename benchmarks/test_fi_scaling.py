"""FI scaling smoke: parallelism and checkpointing must beat cold serial.

Counts must stay bit-identical while only wall-clock changes — the
whole point of the seed protocol and of checkpoint-and-fork.  The pool
test is skipped on single-CPU machines, where a pool can only add
overhead; the >= 2x speedup bars apply when the resources they need
are available.  The slow checkpoint benchmark writes machine-readable
results to ``benchmarks/results/fi_checkpoint.json`` and the repo root
(``BENCH_fi_checkpoint.json``) for trend tracking.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.fi import FaultInjector
from repro.sched import CampaignExecutor, CampaignSettings, ModuleSpec

CPUS = os.cpu_count() or 1
RESULTS_DIR = Path(__file__).parent / "results"


@pytest.mark.skipif(CPUS < 2, reason="parallel speedup needs >= 2 CPUs")
def test_parallel_beats_serial_wall_clock():
    runs = int(os.environ.get("REPRO_SCALING_RUNS", 2000 if CPUS >= 4 else 500))
    workers = 4 if CPUS >= 4 else 2
    spec = ModuleSpec.from_benchmark("blackscholes", "test")
    injector = FaultInjector(spec.materialize())

    started = time.perf_counter()
    serial = injector.campaign(runs, seed=1)
    serial_wall = time.perf_counter() - started

    parallel = CampaignExecutor(
        spec, settings=CampaignSettings(workers=workers)
    ).run(runs, seed=1)

    assert parallel.counts == serial.counts
    assert not parallel.degraded
    assert parallel.wall_seconds < serial_wall
    if CPUS >= 4:
        speedup = serial_wall / parallel.wall_seconds
        assert speedup >= 2.0, (
            f"4-worker campaign only {speedup:.2f}x faster "
            f"({serial_wall:.2f}s serial vs {parallel.wall_seconds:.2f}s)"
        )


@pytest.mark.slow
def test_checkpoint_beats_cold_runs():
    """>= 1000-run campaigns: checkpointing keeps counts and >= 2x speed."""
    runs = int(os.environ.get("REPRO_CHECKPOINT_RUNS", 1000))
    report = {"runs": runs, "benchmarks": {}}
    speedups = []
    for name in ("pathfinder", "hotspot"):
        module = ModuleSpec.from_benchmark(name, "test").materialize()
        cold = FaultInjector(module, checkpoint=False)
        started = time.perf_counter()
        cold_result = cold.run_span(0, runs, 1)
        cold_wall = time.perf_counter() - started

        warm = FaultInjector(module, checkpoint=True)
        started = time.perf_counter()
        warm_result = warm.run_span(0, runs, 1)
        warm_wall = time.perf_counter() - started

        assert warm_result.counts == cold_result.counts
        assert warm_result.checkpointed
        assert not warm_result.checkpoint_degraded
        speedup = cold_wall / warm_wall
        speedups.append(speedup)
        report["benchmarks"][name] = {
            "cold_wall_seconds": round(cold_wall, 4),
            "checkpoint_wall_seconds": round(warm_wall, 4),
            "speedup": round(speedup, 3),
            "dynamic_instructions": warm_result.dynamic_instructions,
            "skipped_instructions": warm_result.skipped_instructions,
            "snapshot_bytes": warm_result.snapshot_bytes,
            "instructions_per_second": round(
                warm_result.instructions_per_second
            ),
        }

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = json.dumps(report, indent=2) + "\n"
    (RESULTS_DIR / "fi_checkpoint.json").write_text(payload)
    (Path(__file__).resolve().parents[1]
     / "BENCH_fi_checkpoint.json").write_text(payload)

    assert max(speedups) >= 2.0, speedups
