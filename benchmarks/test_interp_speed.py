"""Interpreter microbenchmark: golden-run and campaign throughput.

Records per-benchmark golden-run throughput (dynamic instructions per
second) for the reference engine (every block on the closure steps) and
the generated code into ``benchmarks/results/interp_speed.json``, and a
>=1000-run campaign comparison into the repo root
(``BENCH_interp_codegen.json``) for the nightly trend lane.  Counts and
outputs must stay bit-identical — only wall-clock may differ — so the
benchmark doubles as one more differential.  The 2x bar applies to the
best benchmark, matching the CI differential (small programs are
dominated by fixed per-run costs).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.bench import BENCHMARK_NAMES
from repro.fi import FaultInjector
from repro.interp import TIER_CODEGEN, ExecutionEngine
from repro.interp.engine import ReferenceEngine
from repro.sched import ModuleSpec

RESULTS_DIR = Path(__file__).parent / "results"


def _best_golden(engine: ExecutionEngine, repeats: int = 5):
    """(best wall seconds, dynamic count) over ``repeats`` golden runs."""
    best, dynamic = float("inf"), 0
    for _ in range(repeats):
        started = time.perf_counter()
        dynamic = engine.run().dynamic_count
        best = min(best, time.perf_counter() - started)
    return best, dynamic


@pytest.mark.slow
def test_golden_run_throughput_both_tiers():
    report = {"benchmarks": {}}
    speedups = []
    for name in BENCHMARK_NAMES:
        module = ModuleSpec.from_benchmark(name, "test").materialize()
        closure = ReferenceEngine(module)
        codegen = ExecutionEngine(module)
        assert closure.run().outputs == codegen.run().outputs
        closure_seconds, dynamic = _best_golden(closure)
        codegen_seconds, _ = _best_golden(codegen)
        speedup = closure_seconds / codegen_seconds
        speedups.append(speedup)
        report["benchmarks"][name] = {
            "dynamic_instructions": dynamic,
            "closure_seconds": round(closure_seconds, 6),
            "codegen_seconds": round(codegen_seconds, 6),
            "closure_instr_per_second": round(dynamic / closure_seconds),
            "codegen_instr_per_second": round(dynamic / codegen_seconds),
            "speedup": round(speedup, 3),
        }

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = json.dumps(report, indent=2) + "\n"
    (RESULTS_DIR / "interp_speed.json").write_text(payload)

    assert max(speedups) >= 2.0, speedups


@pytest.mark.slow
def test_campaign_throughput_both_tiers():
    """>=1000-run campaigns per tier: identical counts, dynamic-instr/s
    recorded for the nightly BENCH_interp_codegen.json artifact."""
    runs = int(os.environ.get("REPRO_INTERP_BENCH_RUNS", 1000))
    report = {"runs": runs, "benchmarks": {}}
    speedups = []
    for name in ("pathfinder", "hotspot"):
        module = ModuleSpec.from_benchmark(name, "test").materialize()
        per_engine = []
        for engine in (ReferenceEngine(module), ExecutionEngine(module)):
            injector = FaultInjector(module, engine=engine,
                                     interp_tier=TIER_CODEGEN)
            started = time.perf_counter()
            result = injector.run_span(0, runs, 1)
            wall = time.perf_counter() - started
            per_engine.append((result, wall))
        closure_result, closure_wall = per_engine[0]
        codegen_result, codegen_wall = per_engine[1]

        assert codegen_result.counts == closure_result.counts
        speedup = closure_wall / codegen_wall
        speedups.append(speedup)
        report["benchmarks"][name] = {
            "closure_wall_seconds": round(closure_wall, 4),
            "codegen_wall_seconds": round(codegen_wall, 4),
            "speedup": round(speedup, 3),
            "closure_instr_per_second": round(
                closure_result.instructions_per_second
            ),
            "codegen_instr_per_second": round(
                codegen_result.instructions_per_second
            ),
        }

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = json.dumps(report, indent=2) + "\n"
    (RESULTS_DIR / "interp_campaign.json").write_text(payload)
    (Path(__file__).resolve().parents[1]
     / "BENCH_interp_codegen.json").write_text(payload)

    assert max(speedups) > 1.1, speedups
