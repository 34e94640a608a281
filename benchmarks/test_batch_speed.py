"""Batch-tier campaign throughput: the nightly BENCH_batch_tier lane.

Runs >=1000-run cold FI campaigns on every registered benchmark, batch
tier (64 lanes, plus a 256-lane probe on the compute-dense subset)
against the codegen tier, asserting bit-identical counts and recording
per-benchmark speedups into ``benchmarks/results/batch_speed.json`` and
the repo-root ``BENCH_batch_tier.json`` trend artifact.

The numbers are reported honestly: the compute-dense subset (hotspot,
sad, blackscholes, lulesh) must hold a geomean well above the CI bar,
and each benchmark carries a ``target_3x`` flag marking whether it
reached the 3x aspiration.  Branch-dominated programs (pathfinder,
libquantum) used to sit near 1x on the peel-and-drain path; with SIMT
reconvergence (DESIGN.md §12) they stay in lockstep through divergent
branches, and this lane gates the best of the pair at >1.5x while
tracking both speedups and their re-merge/drain counters in the trend
artifact.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.bench import BENCHMARK_NAMES
from repro.fi import FaultInjector
from repro.interp import TIER_BATCH, TIER_CODEGEN
from repro.interp.batch import HAVE_NUMPY
from repro.sched import ModuleSpec

RESULTS_DIR = Path(__file__).parent / "results"

#: Straight-line-arithmetic-heavy programs where lockstep execution
#: amortizes; the geomean gate applies to these only.
DENSE = ("hotspot", "sad", "blackscholes", "lulesh")

#: Branch-dominated programs whose throughput rides on reconvergence
#: keeping divergent lanes in lockstep; the best of the pair is gated
#: at >1.5x (libquantum's divergent-address loads cap its ceiling).
BRANCHY = ("pathfinder", "libquantum")


def _campaign_seconds(module, tier, runs, lanes=0):
    # Best-of-three: a single cold shot is hostage to whatever else the
    # box is doing (hypervisor steal arrives in multi-second episodes),
    # and the gates below compare ratios of these.
    best = None
    for _ in range(3):
        injector = FaultInjector(
            module, interp_tier=tier, checkpoint=False, batch_lanes=lanes
        )
        started = time.perf_counter()
        result = injector.run_span(0, runs, 1)
        wall = time.perf_counter() - started
        if best is None or wall < best:
            best = wall
    return result, best


@pytest.mark.slow
@pytest.mark.skipif(not HAVE_NUMPY, reason="batch tier requires numpy")
def test_batch_campaign_throughput():
    runs = int(os.environ.get("REPRO_BATCH_BENCH_RUNS", 1000))
    report = {"runs": runs, "lanes": 64, "benchmarks": {}}
    dense_speedups = []
    branchy_speedups = {}
    for name in BENCHMARK_NAMES:
        module = ModuleSpec.from_benchmark(name, "test").materialize()
        codegen_result, codegen_wall = _campaign_seconds(
            module, TIER_CODEGEN, runs
        )
        batch_result, batch_wall = _campaign_seconds(
            module, TIER_BATCH, runs, lanes=64
        )
        assert batch_result.counts == codegen_result.counts
        assert batch_result.batch_fallbacks == 0
        speedup = codegen_wall / batch_wall
        entry = {
            "codegen_wall_seconds": round(codegen_wall, 4),
            "batch_wall_seconds": round(batch_wall, 4),
            "speedup": round(speedup, 3),
            "divergences": batch_result.batch_divergences,
            "reconverged": batch_result.batch_reconverged,
            "drains": batch_result.batch_drains,
            "drain_fraction": round(batch_result.drain_fraction, 4),
            "gated": name in DENSE or name in BRANCHY,
            "target_3x": speedup >= 3.0,
        }
        if name in BRANCHY:
            branchy_speedups[name] = speedup
        if name in DENSE:
            # A wider-lane probe: divergence-light programs keep gaining
            # past 64 lanes, and the trend lane should show by how much.
            wide_result, wide_wall = _campaign_seconds(
                module, TIER_BATCH, runs, lanes=256
            )
            assert wide_result.counts == codegen_result.counts
            entry["speedup_256_lanes"] = round(codegen_wall / wide_wall, 3)
            entry["target_3x"] = entry["target_3x"] or (
                entry["speedup_256_lanes"] >= 3.0
            )
            dense_speedups.append(max(speedup, codegen_wall / wide_wall))
        report["benchmarks"][name] = entry

    geomean = 1.0
    for value in dense_speedups:
        geomean *= value
    geomean **= 1.0 / len(dense_speedups)
    report["dense_geomean_speedup"] = round(geomean, 3)
    report["dense_benchmarks"] = list(DENSE)
    report["branchy_benchmarks"] = list(BRANCHY)
    report["branchy_speedups"] = {
        name: round(value, 3) for name, value in branchy_speedups.items()
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = json.dumps(report, indent=2) + "\n"
    (RESULTS_DIR / "batch_speed.json").write_text(payload)
    (Path(__file__).resolve().parents[1]
     / "BENCH_batch_tier.json").write_text(payload)

    assert geomean >= 2.5, report
    assert max(branchy_speedups.values()) > 1.5, report
