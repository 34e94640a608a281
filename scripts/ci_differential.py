#!/usr/bin/env python
"""Differential CI checks for the caching and checkpointing layers.

Six phases, selectable with ``--only`` (default: all):

1. **fig5 replay** — run fig5 against an empty artifact cache (cold),
   then again in the same process (warm).  The warm run must render
   bit-identically and beat the cold run by the speedup threshold:
   profiles, FI campaign counts, and per-function model results are all
   served from the caches instead of recomputed.  Then Table II, Fig. 8
   and the input and optimization-level studies, cold and warm at
   ``QUICK``: the warm renders must be identical and the warm pass must
   call no trial (``FaultInjector.run_span``), no golden run or capture
   and no ``ExecutionEngine.run`` or ``ProfilingInterpreter.run``.

2. **one-function edit** — duplicate a few instructions inside one
   function of hercules (``laplacian``), re-profile, then re-model both
   warm (shared query stores populated by the pre-edit build) and cold.
   The per-instruction SDC maps must agree bit-for-bit, intra-function
   queries of untouched functions must show zero misses, and the warm
   re-model must beat the cold rebuild by the re-model threshold.

3. **fi-checkpoint** — run the same FI campaign cold (full runs) and
   checkpointed (golden-prefix snapshots, suffix-only trials that stop
   where they rejoin the golden run) on two benchmarks with different
   outcome mixes.  Counts must be bit-identical, trials must actually
   skip prefix work, and the checkpointed campaign must hit the speedup
   threshold.  More campaigns are checked for counts only: hotspot at
   stride 1, then a sweep of every registered benchmark at ``test``
   scale, at O0 and after mem2reg at O2 (phis at snapshot points), with
   ``SWEEP_RUNS`` runs each (about 15 s on a 2-vCPU machine), where
   every golden snapshot must also hold ``main`` alone on the stack
   (hercules is the one benchmark with a callee).  Every checkpointed
   campaign must run checkpointed and have trials that rejoined, so the
   phase cannot pass with checkpointing degraded or convergence off.

4. **interp-codegen** — golden runs on every registered benchmark and
   checkpointed FI campaigns on two of them, the generated code against
   the reference engine (every block on the closure steps).  Outcomes,
   outputs, block counts and campaign counts must be bit-identical, and
   the generated code must hit the golden-run speedup threshold (plus a
   measurable campaign speedup on top of checkpointing).  Then counts
   only: a checkpointed campaign of ``CODEGEN_SWEEP_RUNS`` runs on every
   registered benchmark at ``test`` scale, at O0 and O2, on both engines.

5. **batch-tier** — FI campaigns on every registered benchmark, batch
   tier vs codegen tier.  Campaign counts must be bit-identical at 1,
   8 and 64 lanes with no scalar fallbacks, lanes must actually peel
   (divergences observed), and 1000-run cold campaigns on the
   compute-dense subset (hotspot, sad, blackscholes, lulesh) must beat
   codegen by the geomean speedup threshold.  Requires numpy (skipped
   with a notice when absent — the tier then degrades to codegen).

6. **tuples** — derive the model tuples of the registered benchmarks at
   ``default`` scale, the scale of perfbench's ``predict``: each operand
   of every binop, compare and cast, plus every select arm.
   Tuples from hoisted evaluators, batched flips and closed forms must
   equal the per-flip reference enumeration's in all three fields, and
   must be derived at least 1.5x faster (best of 3 each).

Exits non-zero with a one-line reason on the first failed check.  The
default artifact cache is a fresh temporary directory, removed when the
run ends; a ``--cache-dir`` is left in place.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager

from repro.bench import BENCHMARK_NAMES, build_module
from repro.cache.disk import configure_cache
from repro.core.config import trident_config
from repro.core.simple_models import create_model
from repro.core.tuples import ReferenceTupleDeriver, TupleDeriver
from repro.fi import FaultInjector
from repro.harness import (
    run_fig8,
    run_input_sensitivity,
    run_optlevels,
    run_table2,
)
from repro.harness.context import QUICK, Workspace
from repro.harness.fig5 import run_fig5
from repro.interp import TIER_CODEGEN, ExecutionEngine
from repro.interp.engine import ReferenceEngine
from repro.ir.instructions import BinOp, Cast, FCmp, ICmp, Select
from repro.opt.pipeline import optimize
from repro.profiling import ProfilingInterpreter
from repro.protection.duplication import (
    duplicable_iids,
    duplicate_instructions,
)
from repro.query import reset_query_stores


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"FAIL: {message}")
    print(f"ok: {message}")


def fig5_replay(speedup: float) -> None:
    started = time.perf_counter()
    cold = run_fig5(Workspace(QUICK)).render()
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    warm = run_fig5(Workspace(QUICK)).render()
    warm_seconds = time.perf_counter() - started

    check(warm == cold, "fig5 warm rerun renders bit-identically")
    check(
        warm_seconds * speedup <= cold_seconds,
        f"fig5 warm {warm_seconds:.2f}s is >={speedup:g}x faster than "
        f"cold {cold_seconds:.2f}s",
    )

    cold_renders = render_store_artifacts()
    with count_executions() as calls:
        warm_renders = render_store_artifacts()
    for name, cold_render in cold_renders.items():
        check(warm_renders[name] == cold_render,
              f"{name} warm rerun renders bit-identically")
    check(not any(calls.values()),
          f"warm table2/fig8/inputs/optlevels execute nothing: {calls}")


#: Every method that executes the program: trials, golden runs,
#: checkpoint captures and profiling runs.
EXECUTIONS = (
    (FaultInjector, "run_span"),
    (ExecutionEngine, "run"),
    (ExecutionEngine, "golden"),
    (ExecutionEngine, "capture"),
    (ProfilingInterpreter, "run"),
)


@contextmanager
def count_executions():
    """Count calls of every method in EXECUTIONS while the block runs."""
    calls = {}
    originals = []

    def counted(label, method):
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return method(*args, **kwargs)
        return wrapper

    for owner, name in EXECUTIONS:
        label = f"{owner.__name__}.{name}"
        calls[label] = 0
        originals.append((owner, name, getattr(owner, name)))
        setattr(owner, name, counted(label, getattr(owner, name)))
    try:
        yield calls
    finally:
        for owner, name, method in originals:
            setattr(owner, name, method)


def render_store_artifacts() -> dict[str, str]:
    """The renders of the artifacts besides fig5 whose fault injection
    goes through the result store."""
    workspace = Workspace(QUICK)
    return {
        "table2": run_table2(workspace).render(),
        "fig8": run_fig8(workspace).render(),
        "inputs": run_input_sensitivity(workspace).render(),
        "optlevels": run_optlevels(workspace).render(),
    }


def one_function_edit(speedup: float) -> None:
    reset_query_stores()
    module = build_module("hercules", "small")
    profile, _ = ProfilingInterpreter(module).run()
    create_model("trident", module, profile, warm=False,
                 shared=True).sdc_map()

    duplicable = set(duplicable_iids(module))
    helper_iids = [
        inst.iid
        for inst in module.functions["laplacian"].instructions()
        if inst.iid in duplicable
    ]
    protected, report = duplicate_instructions(module, helper_iids[:3])
    check(
        report.touched_functions == {"laplacian"},
        "duplication touched exactly one function",
    )
    pprofile, _ = ProfilingInterpreter(protected).run()

    started = time.perf_counter()
    cold_model = create_model("trident", protected, pprofile,
                              warm=False, shared=False)
    cold_map = cold_model.sdc_map()
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    warm_model = create_model("trident", protected, pprofile,
                              warm=False, shared=True)
    warm_map = warm_model.sdc_map()
    warm_seconds = time.perf_counter() - started

    check(warm_map == cold_map,
          "incremental re-model bit-identical to cold rebuild")
    for name in set(protected.functions) - report.touched_functions:
        for query in ("model.tuples", "model.fc"):
            misses = warm_model.queries.view(query, name).misses
            check(
                misses == 0,
                f"{query} for untouched {name} served from cache",
            )
    check(
        warm_seconds * speedup <= cold_seconds,
        f"re-model warm {warm_seconds:.3f}s is >={speedup:g}x faster "
        f"than cold {cold_seconds:.3f}s",
    )


def fi_checkpoint(speedup: float, runs: int) -> None:
    """Cold vs checkpointed campaigns: identical counts, faster clock."""
    speedups = []
    for name in ("pathfinder", "hotspot"):
        module = build_module(name, "test")
        cold = FaultInjector(module, checkpoint=False)
        started = time.perf_counter()
        cold_result = cold.run_span(0, runs, 1)
        cold_seconds = time.perf_counter() - started

        warm = FaultInjector(module, checkpoint=True)
        started = time.perf_counter()
        warm_result = warm.run_span(0, runs, 1)
        warm_seconds = time.perf_counter() - started

        check(
            warm_result.counts == cold_result.counts,
            f"{name}: checkpointed counts bit-identical to cold runs",
        )
        check(
            warm_result.checkpointed
            and not warm_result.checkpoint_degraded,
            f"{name}: campaign actually ran checkpointed",
        )
        check(
            warm_result.skipped_instructions > 0,
            f"{name}: trials skipped prefix work "
            f"({warm_result.skipped_instructions:,} dynamic instructions)",
        )
        check_converged(name, warm_result, runs)
        speedups.append(cold_seconds / warm_seconds)
        print(f"   {name}: cold {cold_seconds:.2f}s, checkpointed "
              f"{warm_seconds:.2f}s ({speedups[-1]:.2f}x)")
    check(
        max(speedups) >= speedup,
        f"checkpointing is >={speedup:g}x faster on some benchmark "
        f"(best {max(speedups):.2f}x)",
    )

    counts_only("hotspot stride 1", build_module("hotspot", "test"), runs,
                stride=1)
    checkpoint_sweep()


#: Runs per campaign of the fi-checkpoint phase's all-benchmark sweep.
SWEEP_RUNS = 1000


def checkpoint_sweep() -> None:
    """Counts only, on every benchmark at ``test`` scale and O0 and O2,
    and every golden snapshot holds main alone on the stack."""
    started = time.perf_counter()
    for name in BENCHMARK_NAMES:
        module = build_module(name, "test")
        for level, variant in ((0, module), (2, optimize(module, 2)[0])):
            label = f"{name} O{level}"
            warm = counts_only(label, variant, SWEEP_RUNS)
            snapshots = warm.checkpoints().snapshots
            check(
                all(len(s.frames) == 1 for s in snapshots),
                f"{label}: all {len(snapshots)} golden snapshots hold "
                f"main alone",
            )
    print(f"   sweep of {len(BENCHMARK_NAMES)} benchmarks at {SWEEP_RUNS} "
          f"runs: {time.perf_counter() - started:.1f}s")


def counts_only(label: str, module, runs: int, stride: int = 0):
    """A cold and a checkpointed campaign on ``module``: identical
    counts, run checkpointed, with trials that rejoined.  Returns the
    checkpointed injector."""
    cold = FaultInjector(module, checkpoint=False).run_span(0, runs, 1)
    warm = FaultInjector(module, checkpoint=True, checkpoint_stride=stride)
    result = warm.run_span(0, runs, 1)
    check(
        result.counts == cold.counts and result.checkpointed
        and not result.checkpoint_degraded,
        f"{label}: checkpointed counts bit-identical to cold runs",
    )
    check_converged(label, result, runs)
    return warm


def check_converged(label: str, result, runs: int) -> None:
    check(
        result.converged_trials > 0,
        f"{label}: {result.converged_trials} of {runs} trials rejoined "
        f"the golden run",
    )


def _best_golden_seconds(engine: ExecutionEngine, repeats: int = 5) -> float:
    """Best-of-N golden-run wall clock (min is the stable estimator)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        engine.run()
        best = min(best, time.perf_counter() - started)
    return best


def interp_codegen(speedup: float, runs: int) -> None:
    """Reference engine vs generated code: identical results, faster
    clock."""
    golden_speedups = []
    for name in BENCHMARK_NAMES:
        module = build_module(name, "test")
        reference = ReferenceEngine(module)
        codegen = ExecutionEngine(module)
        left, right = reference.run(), codegen.run()
        check(
            left.outcome == right.outcome
            and left.outputs == right.outputs
            and left.block_counts == right.block_counts
            and left.dynamic_count == right.dynamic_count,
            f"{name}: codegen golden run bit-identical to the reference",
        )
        reference_seconds = _best_golden_seconds(reference)
        codegen_seconds = _best_golden_seconds(codegen)
        golden_speedups.append(reference_seconds / codegen_seconds)
        print(f"   {name}: reference {reference_seconds * 1e3:.2f}ms, "
              f"codegen {codegen_seconds * 1e3:.2f}ms "
              f"({golden_speedups[-1]:.2f}x)")
    check(
        max(golden_speedups) >= speedup,
        f"codegen golden runs are >={speedup:g}x faster on some benchmark "
        f"(best {max(golden_speedups):.2f}x)",
    )

    campaign_speedups = []
    for name in ("pathfinder", "hotspot"):
        module = build_module(name, "test")
        reference = FaultInjector(module, engine=ReferenceEngine(module),
                                  interp_tier=TIER_CODEGEN)
        started = time.perf_counter()
        reference_result = reference.run_span(0, runs, 1)
        reference_seconds = time.perf_counter() - started

        codegen = FaultInjector(module, interp_tier=TIER_CODEGEN)
        started = time.perf_counter()
        codegen_result = codegen.run_span(0, runs, 1)
        codegen_seconds = time.perf_counter() - started

        check(
            codegen_result.counts == reference_result.counts,
            f"{name}: codegen campaign counts bit-identical to the "
            f"reference",
        )
        check(
            codegen_result.checkpointed and reference_result.checkpointed,
            f"{name}: both campaigns ran checkpointed",
        )
        campaign_speedups.append(reference_seconds / codegen_seconds)
        print(f"   {name}: reference {reference_seconds:.2f}s, codegen "
              f"{codegen_seconds:.2f}s ({campaign_speedups[-1]:.2f}x)")
    check(
        max(campaign_speedups) > 1.1,
        f"codegen campaigns are measurably faster on top of checkpointing "
        f"(best {max(campaign_speedups):.2f}x)",
    )
    codegen_sweep()


#: Runs per campaign of the interp-codegen phase's all-benchmark sweep.
CODEGEN_SWEEP_RUNS = 300


def codegen_sweep() -> None:
    """Counts only: checkpointed campaigns on every benchmark at
    ``test`` scale and O0 and O2, generated code against the reference
    engine, the templates' one independent oracle."""
    started = time.perf_counter()
    for name in BENCHMARK_NAMES:
        module = build_module(name, "test")
        for level, variant in ((0, module), (2, optimize(module, 2)[0])):
            results = [
                FaultInjector(variant, engine=engine,
                              interp_tier=TIER_CODEGEN)
                .run_span(0, CODEGEN_SWEEP_RUNS, 1)
                for engine in (ReferenceEngine(variant),
                               ExecutionEngine(variant))
            ]
            check(
                results[0].counts == results[1].counts
                and all(result.checkpointed
                        and not result.checkpoint_degraded
                        for result in results),
                f"{name} O{level}: checkpointed codegen campaign counts "
                f"bit-identical to the reference",
            )
    print(f"   sweep of {len(BENCHMARK_NAMES)} benchmarks at "
          f"{CODEGEN_SWEEP_RUNS} runs: {time.perf_counter() - started:.1f}s")


#: Benchmarks dense enough in straight-line arithmetic for lockstep
#: execution to amortize its per-block dispatch; branch-dominated
#: programs (pathfinder, libquantum) lean on SIMT reconvergence to stay
#: in lockstep and are tracked by the nightly benchmark rather than the
#: CI gate.
BATCH_SPEED_BENCHMARKS = ("hotspot", "sad", "blackscholes", "lulesh")
BATCH_LANE_COUNTS = (1, 8, 64)


def batch_tier(speedup: float, runs: int) -> None:
    """Batch tier vs codegen: identical counts at every lane count and
    in both divergence modes (park-and-remerge and peel-and-drain),
    faster cold campaigns where there is compute to amortize."""
    import os

    from repro.interp import TIER_BATCH
    from repro.interp.batch import HAVE_NUMPY

    if not HAVE_NUMPY:
        print("   numpy not installed: batch tier degrades to codegen "
              "execution; nothing to differentiate")
        return

    reconverged = 0
    divergences = 0
    for name in BENCHMARK_NAMES:
        module = build_module(name, "test")
        reference = FaultInjector(
            module, interp_tier=TIER_CODEGEN
        ).campaign(120, seed=5)
        for mode in ("1", "0"):
            os.environ["REPRO_BATCH_RECONVERGE"] = mode
            try:
                for lanes in BATCH_LANE_COUNTS:
                    # A fresh injector per (mode, lanes): the runner
                    # reads the mode flag at construction.
                    result = FaultInjector(
                        module, interp_tier=TIER_BATCH, batch_lanes=lanes
                    ).campaign(120, seed=5)
                    check(
                        result.counts == reference.counts,
                        f"{name}: batch campaign counts bit-identical to "
                        f"codegen at {lanes} lanes "
                        f"(reconvergence {'on' if mode == '1' else 'off'})",
                    )
                    check(
                        result.batch_fallbacks == 0,
                        f"{name}: no groups fell back to scalar execution",
                    )
                    if mode == "1":
                        reconverged += result.batch_reconverged
                    else:
                        divergences += result.batch_divergences
            finally:
                del os.environ["REPRO_BATCH_RECONVERGE"]
    check(
        reconverged > 0,
        f"multi-lane groups exercised park-and-remerge "
        f"({reconverged:,} branches re-merged)",
    )
    check(
        divergences > 0,
        f"multi-lane groups exercised the peel-and-drain path "
        f"({divergences:,} divergences)",
    )

    speedups = []
    for name in BATCH_SPEED_BENCHMARKS:
        module = build_module(name, "test")
        # Best-of-two per tier: the gate below compares a ratio of wall
        # times, and a single cold shot on a loaded runner can swing it
        # by tens of percent.
        codegen_seconds = batch_seconds = None
        for _ in range(2):
            codegen = FaultInjector(
                module, interp_tier=TIER_CODEGEN, checkpoint=False
            )
            started = time.perf_counter()
            codegen_result = codegen.run_span(0, runs, 1)
            elapsed = time.perf_counter() - started
            if codegen_seconds is None or elapsed < codegen_seconds:
                codegen_seconds = elapsed

            batch = FaultInjector(
                module, interp_tier=TIER_BATCH, checkpoint=False,
                batch_lanes=64,
            )
            started = time.perf_counter()
            batch_result = batch.run_span(0, runs, 1)
            elapsed = time.perf_counter() - started
            if batch_seconds is None or elapsed < batch_seconds:
                batch_seconds = elapsed

            check(
                batch_result.counts == codegen_result.counts,
                f"{name}: 64-lane cold campaign counts bit-identical",
            )
        speedups.append(codegen_seconds / batch_seconds)
        print(f"   {name}: codegen {codegen_seconds:.2f}s, batch "
              f"{batch_seconds:.2f}s ({speedups[-1]:.2f}x)")
    geomean = 1.0
    for value in speedups:
        geomean *= value
    geomean **= 1.0 / len(speedups)
    check(
        geomean >= speedup,
        f"batch campaigns are >={speedup:g}x faster (geomean) on the "
        f"compute-dense subset (got {geomean:.2f}x)",
    )


def _tuple_pairs(module):
    """Binop, compare and cast operands, and select arms: the tuples
    that enumerate flips."""
    for inst in module.instructions():
        if isinstance(inst, (BinOp, ICmp, FCmp, Cast)):
            indices = range(len(inst.operands))
        elif isinstance(inst, Select):
            indices = (1, 2)
        else:
            continue
        for index in indices:
            yield inst, index


def tuple_reference(speedup: float = 1.5) -> None:
    config = trident_config()
    programs = []
    for name in BENCHMARK_NAMES:
        module = build_module(name, "default")
        profile, _ = ProfilingInterpreter(module).run()
        programs.append((profile, list(_tuple_pairs(module))))

    def derive(deriver_class):
        tuples = []
        for profile, pairs in programs:
            deriver = deriver_class(profile, config)
            for inst, index in pairs:
                derived = deriver.tuple_for(inst, index)
                tuples.append((derived.propagation, derived.masking,
                               derived.crash))
        return tuples

    seconds = {}
    derived = {}
    for deriver_class in (ReferenceTupleDeriver, TupleDeriver):
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            derived[deriver_class] = derive(deriver_class)
            best = min(best, time.perf_counter() - started)
        seconds[deriver_class] = best
    fast, reference = derived[TupleDeriver], derived[ReferenceTupleDeriver]
    mismatched = sum(1 for got, want in zip(fast, reference) if got != want)
    check(mismatched == 0,
          f"{len(fast)} tuples identical to the per-flip reference "
          f"({mismatched} differ)")
    ratio = seconds[ReferenceTupleDeriver] / seconds[TupleDeriver]
    check(
        ratio >= speedup,
        f"tuples derived {ratio:.2f}x faster than the reference "
        f"({seconds[TupleDeriver] * 1e3:.0f} ms against "
        f"{seconds[ReferenceTupleDeriver] * 1e3:.0f} ms; "
        f"need >={speedup:g}x)",
    )


def run_phases(args) -> None:
    phases = args.only or ["fig5", "remodel", "fi-checkpoint",
                           "interp-codegen", "batch-tier", "tuples"]
    if "fig5" in phases:
        fig5_replay(args.fig5_speedup)
    if "remodel" in phases:
        one_function_edit(args.remodel_speedup)
    if "fi-checkpoint" in phases:
        fi_checkpoint(args.fi_checkpoint_speedup, args.fi_checkpoint_runs)
    if "interp-codegen" in phases:
        interp_codegen(args.interp_codegen_speedup,
                       args.interp_campaign_runs)
    if "batch-tier" in phases:
        batch_tier(args.batch_tier_speedup, args.batch_campaign_runs)
    if "tuples" in phases:
        tuple_reference()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--cache-dir", default=None,
        help="artifact cache root (default: a fresh temp dir, so the "
             "cold half of the differential is actually cold, removed "
             "when the run ends)",
    )
    parser.add_argument(
        "--only", action="append",
        choices=("fig5", "remodel", "fi-checkpoint", "interp-codegen",
                 "batch-tier", "tuples"),
        default=None,
        help="run only the named phase (repeatable; default: all)",
    )
    parser.add_argument("--fig5-speedup", type=float, default=2.0)
    parser.add_argument("--remodel-speedup", type=float, default=2.0)
    parser.add_argument("--fi-checkpoint-speedup", type=float, default=2.0)
    parser.add_argument("--fi-checkpoint-runs", type=int, default=1000)
    parser.add_argument("--interp-codegen-speedup", type=float, default=2.0)
    parser.add_argument("--interp-campaign-runs", type=int, default=600)
    parser.add_argument("--batch-tier-speedup", type=float, default=2.5)
    parser.add_argument("--batch-campaign-runs", type=int, default=1000)
    args = parser.parse_args()

    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="repro-diff-")
    try:
        configure_cache(cache_dir)
        print(f"artifact cache: {cache_dir}")
        run_phases(args)
    finally:  # a failed check exits through SystemExit
        if args.cache_dir is None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    print("differential check passed")


if __name__ == "__main__":
    main()
