#!/usr/bin/env python3
"""The repository benchmark: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload predict --seed 1 --seconds 15 --trace 0

runs one workload from the repository root and prints, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and the
``metrics`` named in BENCHMARK.json (``end_to_end`` with ``--trace 0``,
``per_layer`` with ``--trace 1``).  The lines before it give the
workload's own figures by name.  Outputs are checked against
``perfbench/oracle.json``; any mismatch makes the exit code 1.

    python3 perfbench/run.py --smoke          # self-check at tiny size
    python3 perfbench/run.py --write-oracle   # regenerate the oracle

WORKLOADS.md explains the workloads, the metrics and what each layer
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
ORACLE_FILE = HERE / "oracle.json"
OUT_DIR = HERE / "out"
#: Set-up is sampled this many times per run and reported as a median.
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("predict", "fig5", "inject", "service"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few programs only (the smoke check)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and check "
                             "the printed metric names")
    parser.add_argument("--write-oracle", action="store_true",
                        help="regenerate perfbench/oracle.json")
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.smoke or args.write_oracle or args.setup_probe
            or args.workload):
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; there is "
              f"no program to measure", file=sys.stderr)
        return 2
    # Knobs a user may have exported change tiers, lanes and stores.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    import workloads
    if args.setup_probe:
        workloads.WORKLOADS[args.setup_probe](_context(workloads, 0, False))
        return 0
    if args.write_oracle:
        return write_oracle(workloads)
    return run(workloads, args)


def _context(workloads, seed: int, tiny: bool, oracle=None):
    return workloads.Context(rng=random.Random(seed), oracle=oracle,
                             out_dir=OUT_DIR, tiny=tiny)


def _repeat(workload, ctx, seconds: float) -> int:
    """Repetitions until ``seconds`` have passed (at least one)."""
    deadline = time.perf_counter() + seconds
    reps = 0
    while True:
        workload.rep(ctx)
        reps += 1
        if time.perf_counter() >= deadline:
            return reps


def _sample_setup(workloads, workload, ctx, samples: int) -> None:
    """Process start and imports up to the first timed operation.

    The service workload's set-up is a daemon spawned until it answers
    health checks; its rounds add one sample each.
    """
    if isinstance(workload, workloads.Service):
        workload.extra_setup(ctx, samples)
        return
    for _ in range(samples):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             workload.name],
            cwd=ROOT, check=True, timeout=120,
        )
        ctx.record("setup", started)


def run(workloads, args) -> int:
    spec = json.loads(SPEC_FILE.read_text())
    oracle = json.loads(ORACLE_FILE.read_text())
    OUT_DIR.mkdir(exist_ok=True)
    ctx = _context(workloads, args.seed, args.tiny, oracle)
    workload = workloads.WORKLOADS[args.workload](ctx)
    # One CPU for the benchmark and the processes it starts: they never
    # run at once, and the calibration loop then times the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ctx.calibrator.start()
    try:
        if not args.trace:
            _sample_setup(workloads, workload, ctx,
                          1 if args.tiny else SETUP_SAMPLES)
        if workload.warmup and not args.tiny:
            workload.rep(ctx)
            ctx.reset()
        if args.trace:
            metrics, lines = traced_run(workloads, workload, ctx, args)
        else:
            _repeat(workload, ctx, args.seconds)
            metrics, lines = workload.metrics(ctx)
            metrics["setup_s"] = statistics.median(ctx.seconds("setup"))
            lines.append(f"setup_s {metrics['setup_s']:.4f} s "
                         f"(median of {len(ctx.timings['setup'])})")
            lines.append(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
        lines.append(calibration_line(ctx))
    finally:
        ctx.cleanup()
    lines.append(f"failed_frac {ctx.failed / max(1, ctx.attempted):.4f} "
                 f"({ctx.failed} of {ctx.attempted} operations)")
    for line in lines:
        print(line)
    for failure in ctx.failures[:20]:
        print(f"FAILED: {failure}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not "
                         f"match BENCHMARK.json {sorted(units)}")
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if ctx.failed == 0 else 1


def calibration_line(ctx) -> str:
    from calibrate import REFERENCE_S
    loops = [cpu for _at, cpu in ctx.calibrator.samples()]
    return (f"times are at reference machine speed: the calibration loop "
            f"took {statistics.median(loops) * 1e3:.3f} ms (median of "
            f"{len(loops)}) against {REFERENCE_S * 1e3:.3f} ms")


def traced_run(workloads, workload, ctx, args):
    """Half the time untraced, half traced: per-layer metrics plus the
    tracing overhead on the workload's primary operation."""
    from tracer import Tracer
    _repeat(workload, ctx, args.seconds / 2)
    untraced = workload.metrics(ctx)[0]["primary_ms"]
    ctx.reset()
    tracer = Tracer()
    tracer.install()
    ctx.tracer = tracer
    try:
        reps = _repeat(workload, ctx, args.seconds / 2)
    finally:
        tracer.uninstall()
        ctx.tracer = None
    tracer.harvest_queries()
    traced = workload.metrics(ctx)[0]["primary_ms"]
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write_chrome_trace(str(trace_file))
    metrics = per_layer_metrics(tracer, reps, ctx.seconds("health"),
                                traced - untraced)
    lines = [f"{'layer':28s} {'calls':>8s} {'total s':>9s} {'self s':>9s} "
             f"{'self s/rep':>10s}"]
    layers = tracer.layer_times()
    for name, (calls, total, own) in sorted(layers.items(),
                                            key=lambda kv: -kv[1][2]):
        lines.append(f"{name:28s} {calls:8d} {total:9.4f} {own:9.4f} "
                     f"{own / reps:10.4f}")
    lines.append(f"{'counter':38s} {'total':>12s} {'per rep':>12s}")
    for name, amount in sorted(tracer.counters.items()):
        lines.append(f"{name:38s} {amount:12,.0f} {amount / reps:12,.1f}")
    lines.append(f"traced repetitions: {reps}")
    lines.append(f"tracing overhead: {traced - untraced:+.2f} ms on the "
                 f"primary operation ({untraced:.2f} ms untraced, "
                 f"{traced:.2f} ms traced)")
    lines.append(f"trace file: {trace_file.relative_to(ROOT)}")
    return metrics, lines


def per_layer_metrics(tracer, reps: int, health: list[float],
                      overhead_ms: float):
    """Per-repetition self times and counts of each layer."""
    layers = tracer.layer_times()
    counters = tracer.counters

    def self_s(name):
        return layers.get(name, (0, 0.0, 0.0))[2] / reps

    def per_rep(name):
        return counters.get(name, 0) / reps

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    executed = counters.get("fi.executed_instructions", 0)
    skipped = counters.get("fi.skipped_instructions", 0)
    metrics = {
        "profiling.run_s": self_s("profiling.run"),
        "profiling.instructions": per_rep("profiling.instructions"),
        "profiling.instr_per_s": ratio(
            counters.get("profiling.instructions", 0),
            layers.get("profiling.run", (0, 0.0, 0.0))[2]),
        "core.model_build_s": self_s("core.model_build"),
        "core.infer_trident_s": self_s("core.infer_trident"),
        "core.infer_fs_fc_s": self_s("core.infer_fs_fc"),
        "core.infer_fs_s": self_s("core.infer_fs"),
        "query.hits": per_rep("query.hits"),
        "query.misses": per_rep("query.misses"),
        "interp.engine_build_s": self_s("interp.engine_build"),
        "interp.golden_s": self_s("interp.golden"),
        "interp.capture_s": self_s("interp.capture"),
        "fi.run_span_s": self_s("fi.run_span"),
        "fi.trials": per_rep("fi.trials"),
        "fi.skipped_frac": ratio(skipped, executed + skipped),
        "fi.codegen.dynamic_instructions":
            per_rep("fi.codegen.dynamic_instructions"),
        "fi.batch.dynamic_instructions":
            per_rep("fi.batch.dynamic_instructions"),
        "interp.codegen.fallbacks": per_rep("interp.codegen.fallbacks"),
        "interp.batch.run_group_s": self_s("interp.batch.run_group"),
        "interp.batch.groups": per_rep("interp.batch.groups"),
        "interp.batch.divergences": per_rep("interp.batch.divergences"),
        "interp.batch.reconverged": per_rep("interp.batch.reconverged"),
        "interp.batch.drains": per_rep("interp.batch.drains"),
        "interp.batch.drain_fraction": ratio(
            counters.get("interp.batch.drain_executed", 0),
            counters.get("interp.batch.executed", 0)),
        "interp.batch.fallbacks": per_rep("interp.batch.fallbacks"),
        "cache.load_s": self_s("cache.load"),
        "cache.store_s": self_s("cache.store"),
        "cache.load_hits": per_rep("cache.load_hits"),
        "cache.load_misses": per_rep("cache.load_misses"),
        "cache.bytes_written": per_rep("cache.bytes_written"),
        "bench.build_s": self_s("bench.build"),
        "cache.fingerprint_s": self_s("cache.fingerprint"),
        "sched.submit_s": self_s("sched.submit"),
        "sched.store_campaign_s": self_s("sched.store_campaign"),
        "sched.executor_run_s": self_s("sched.executor_run"),
        "serve.health_p50_ms":
            statistics.median(health) * 1e3 if health else 0.0,
        "harness.render_s": self_s("harness.render"),
        "trace.overhead_ms": overhead_ms,
    }
    for name in ("cache_hits", "completed", "coalesced", "rejected",
                 "failed"):
        metrics[f"sched.{name}"] = per_rep(f"sched.{name}")
    return metrics


# ---------------------------------------------------------------------------


def smoke() -> int:
    """Every workload at tiny size, traced and untraced, plus a second
    service sequence seed: exit 0 only if all pass the oracle and print
    exactly the metric names BENCHMARK.json declares."""
    spec = json.loads(SPEC_FILE.read_text())
    cases = [(w["name"], 1, trace) for w in spec["workloads"]
             for trace in (0, 1)]
    cases.append(("service", 2, 0))
    all_ok = True
    for workload, seed, trace in cases:
        command = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds", "1",
                   "--trace", str(trace), "--tiny"]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        problem = None
        try:
            result = json.loads(lines[-1])
            declared = {m["name"]: m["unit"] for m in
                        spec["per_layer" if trace else "end_to_end"]}
            printed = {name: m["unit"]
                       for name, m in result["metrics"].items()}
            if proc.returncode != 0:
                problem = f"exit code {proc.returncode}"
            elif not result["correct"] or result["failed"]:
                problem = f"{result['failed']} failed operations"
            elif printed != declared:
                problem = (f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(printed) ^ set(declared))}")
        except (IndexError, ValueError, KeyError, TypeError) as exc:
            problem = f"no result line ({exc!r}); stderr: {proc.stderr[-500:]}"
        all_ok &= problem is None
        print(f"smoke {workload:8s} seed={seed} trace={trace}: "
              f"{'ok' if problem is None else 'FAIL: ' + problem}")
    return 0 if all_ok else 1


def write_oracle(workloads) -> int:
    """Expected outputs from the current code, checked across paths."""
    import hashlib

    from repro.bench.registry import BENCHMARK_NAMES
    from repro.cache import configure_cache
    from repro.harness.runner import run_experiment
    from repro.harness.context import Workspace
    from repro.query.engine import reset_query_stores
    from repro.sched.executor import run_store_campaign
    from repro.sched.spec import CampaignSettings, ModuleSpec

    ctx = _context(workloads, 0, False)
    oracle = {"predict": {}, "fig5": {}, "inject": {}, "service": {}}
    try:
        configure_cache(ctx.fresh_store())
        reset_query_stores()
        predict = workloads.Predict(ctx)
        for name in BENCHMARK_NAMES:
            _hit, profile, sdc = predict.predict_one(ctx, name)
            oracle["predict"][name] = {
                "profile_digest": workloads.stable_profile_digest(profile),
                "sdc": sdc}

        configure_cache(ctx.fresh_store())
        reset_query_stores()
        render = run_experiment(
            "fig5", Workspace(workloads.FIG5_CONFIG)).render()
        oracle["fig5"]["render_sha256"] = hashlib.sha256(
            render.encode()).hexdigest()

        for program in workloads.INJECT_PROGRAMS:
            counts = []
            for tier in workloads.INJECT_TIERS:
                configure_cache(ctx.fresh_store())
                result = run_store_campaign(
                    workloads.INJECT_RUNS, workloads.INJECT_SEED,
                    spec=ModuleSpec.from_benchmark(program, "test"),
                    settings=CampaignSettings(
                        workers=1, interp_tier=tier,
                        batch_lanes=workloads.BATCH_LANES
                        if tier == "batch" else 0))
                if result.batch_fallbacks:
                    raise SystemExit(f"{program}: batch fallbacks")
                counts.append(result.counts)
            if any(c != counts[0] for c in counts):
                raise SystemExit(f"{program}: tiers disagree: {counts}")
            oracle["inject"][program] = counts[0]

        for name in BENCHMARK_NAMES:
            for seed in workloads.SERVICE_SEED_POOL:
                configure_cache(ctx.fresh_store())
                result = run_store_campaign(
                    workloads.SERVICE_RUNS, seed,
                    spec=ModuleSpec.from_benchmark(name, "test"),
                    settings=CampaignSettings(workers=1))
                oracle["service"][f"{name}:{seed}"] = result.counts
    finally:
        ctx.cleanup()
    ORACLE_FILE.write_text(json.dumps(oracle, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {ORACLE_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
