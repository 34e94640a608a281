"""Command line interface: ``python -m repro <command>``.

Commands mirror the development cycle of Fig. 1a: inspect a program,
predict its SDC probabilities (no FI), validate with fault injection,
and protect it under an overhead budget — plus runners for the paper's
experiments.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench.registry import BENCHMARK_NAMES, all_benchmarks, build_module
from .cache import cached_profile, configure_cache, get_cache, module_fingerprint
from .core.simple_models import MODEL_NAMES, create_model
from .fi.campaign import OUTCOMES, CampaignResult
from .harness.context import ExperimentConfig, Workspace
from .harness.runner import EXPERIMENTS, run_experiment
from .interp.codegen import TIER_BATCH, TIERS
from .ir.printer import format_instruction, print_module
from .opt.pipeline import optimize
from .protection.evaluate import evaluate_protection
from .report.resilience import generate_report
from .sched.executor import CampaignInterrupted, run_store_campaign
from .sched.spec import CampaignSettings, ModuleSpec


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TRIDENT reproduction: soft-error propagation modeling",
    )
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact cache root (default: $REPRO_CACHE_DIR "
                             "or .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed artifact cache")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the Table I benchmarks")

    fingerprint = commands.add_parser(
        "fingerprint",
        help="print content fingerprints of benchmark modules "
             "(CI uses these as cache keys)",
    )
    fingerprint.add_argument("benchmark", nargs="?", default=None,
                             help="one benchmark (default: all)")
    fingerprint.add_argument("--scale", default="default",
                             choices=("test", "small", "default", "large"))
    fingerprint.add_argument("--json", action="store_true",
                             help="emit a JSON object mapping benchmark "
                                  "name to fingerprint (machine consumers: "
                                  "CI, the nightly bench harness)")

    show = commands.add_parser("show", help="print a benchmark's IR")
    _add_benchmark_args(show)

    analyze = commands.add_parser(
        "analyze", help="predict SDC probabilities (no fault injection)"
    )
    _add_benchmark_args(analyze)
    analyze.add_argument("--model", choices=MODEL_NAMES, default="trident")
    analyze.add_argument("--samples", type=_positive_int, default=3000,
                         help="dynamic instances to sample (paper: 3000)")
    analyze.add_argument("--top", type=_non_negative_int, default=10,
                         help="how many SDC-prone instructions to list")
    analyze.add_argument("--opt-level", type=int, default=0,
                         choices=(0, 1, 2),
                         help="optimize before analyzing (2 = SSA form)")
    analyze.add_argument("--explain", action="store_true",
                         help="print the query DAG and per-query "
                              "hit/miss/recompute counters")

    cache = commands.add_parser(
        "cache", help="inspect or maintain the artifact cache"
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_commands.add_parser(
        "stats", help="per-kind entry counts and sizes of the on-disk store"
    )
    prune = cache_commands.add_parser(
        "prune", help="evict least-recently-written entries to fit a budget"
    )
    prune.add_argument("--max-bytes", type=int, required=True,
                       help="target size of the cache root, in bytes")
    cache_commands.add_parser("clear", help="remove every stored artifact")

    report = commands.add_parser(
        "report", help="generate a markdown resilience report"
    )
    _add_benchmark_args(report)
    report.add_argument("--target", type=float, default=None,
                        help="target SDC probability, e.g. 0.05")
    report.add_argument("--budget", type=float, default=1 / 3)
    report.add_argument("--fi-runs", type=int, default=0,
                        help="validate the report with an FI campaign of "
                             "up to this many runs (0 = predictions only)")
    _add_campaign_args(report)

    inject = commands.add_parser(
        "inject", help="run a fault injection campaign (ground truth)"
    )
    _add_benchmark_args(inject)
    inject.add_argument("--runs", type=int, default=1000,
                        help="maximum injection runs")
    _add_campaign_args(inject)

    protect = commands.add_parser(
        "protect", help="selective duplication under an overhead budget"
    )
    _add_benchmark_args(protect)
    protect.add_argument("--model", choices=MODEL_NAMES, default="trident")
    protect.add_argument("--budget", type=float, default=1 / 3,
                         help="fraction of full-duplication overhead")
    protect.add_argument("--runs", type=int, default=600,
                         help="FI runs for the evaluation")

    experiment = commands.add_parser(
        "experiment", help="regenerate a table/figure of the paper"
    )
    experiment.add_argument("id", choices=list(EXPERIMENTS) + ["all"])
    experiment.add_argument("--scale", default="test")
    experiment.add_argument("--fi-samples", type=_positive_int, default=400,
                            help="FI runs and model samples per program")
    experiment.add_argument("--workers", type=int, default=1,
                            help="worker processes for FI campaigns")
    experiment.add_argument("--ci-halfwidth", type=float, default=None,
                            help="stop FI campaigns early at this Wilson "
                                 "95%% CI half-width on the SDC probability")
    _add_checkpoint_args(experiment)
    _add_interp_args(experiment)

    serve = commands.add_parser(
        "serve", help="run the campaign service daemon (JSON over HTTP)"
    )
    serve.add_argument("--host", default=None,
                       help="bind address (default: $REPRO_SERVE_HOST "
                            "or 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port, 0 = ephemeral (default: "
                            "$REPRO_SERVE_PORT or 8321)")
    serve.add_argument("--workers", type=int, default=None,
                       help="default worker processes per campaign "
                            "(default: $REPRO_SERVE_WORKERS or 1)")
    serve.add_argument("--max-pending", type=int, default=None,
                       help="queue capacity before submits get 429 "
                            "(default: $REPRO_SERVE_MAX_PENDING or 64)")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound port here once listening "
                            "(lets scripts use --port 0)")

    submit = commands.add_parser(
        "submit", help="submit a campaign to a running repro serve daemon"
    )
    _add_benchmark_args(submit)
    submit.add_argument("--runs", type=int, default=1000,
                        help="maximum injection runs")
    _add_campaign_args(submit)
    _add_service_args(submit)
    submit.add_argument("--priority", default="interactive",
                        choices=("interactive", "nightly"),
                        help="queue class (nightly yields to interactive)")
    submit.add_argument("--no-wait", action="store_true",
                        help="return the job id immediately instead of "
                             "waiting for the result")
    submit.add_argument("--json", action="store_true",
                        help="print the raw job JSON instead of the "
                             "campaign summary")

    status = commands.add_parser(
        "status", help="inspect a running repro serve daemon"
    )
    status.add_argument("job_id", nargs="?", default=None,
                        help="one job (default: daemon health, queue "
                             "and store stats)")
    _add_service_args(status)
    status.add_argument("--wait", action="store_true",
                        help="block until the named job finishes")
    status.add_argument("--json", action="store_true",
                        help="print the raw JSON response")
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default=None,
                        help="daemon address (default: $REPRO_SERVE_HOST "
                             "or 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None,
                        help="daemon port (default: $REPRO_SERVE_PORT "
                             "or 8321)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="client-side request timeout in seconds")


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed; results are reproducible for "
                             "a given seed regardless of --workers")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = serial, in-process)")
    parser.add_argument("--ci-halfwidth", type=float, default=None,
                        help="stop early once the Wilson 95%% CI half-width "
                             "on the SDC probability is below this "
                             "(paper methodology: 0.01)")
    _add_checkpoint_args(parser)
    _add_interp_args(parser)


def _add_interp_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--interp-tier", default=None,
                        choices=TIERS,
                        help="interpreter execution tier (default: "
                             "REPRO_INTERP_TIER env, else codegen; "
                             "outcomes are identical on every tier)")
    parser.add_argument("--batch-lanes", type=int, default=0,
                        metavar="N",
                        help="trials per lockstep group on the batch "
                             "tier (0 = tier default; counts are "
                             "identical for any lane count)")


def _add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint", default=True,
                        action=argparse.BooleanOptionalAction,
                        help="fork FI trials from golden-prefix snapshots "
                             "and stop those that rejoin the golden run "
                             "(counts are identical either way)")
    parser.add_argument("--checkpoint-stride", type=int, default=0,
                        metavar="N",
                        help="dynamic instructions between snapshots "
                             "(0 = auto)")


def _add_benchmark_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("benchmark", choices=BENCHMARK_NAMES)
    parser.add_argument("--scale", default="default",
                        choices=("test", "small", "default", "large"))
    parser.add_argument("--input-seed", type=int, default=0)


def main(argv=None, out=sys.stdout) -> int:
    args = build_argument_parser().parse_args(argv)
    configure_cache(args.cache_dir, enabled=not args.no_cache)
    handler = {
        "list": _cmd_list,
        "fingerprint": _cmd_fingerprint,
        "show": _cmd_show,
        "analyze": _cmd_analyze,
        "inject": _cmd_inject,
        "protect": _cmd_protect,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
    }[args.command]
    return handler(args, out)


def _print_cache_summary(out) -> None:
    cache = get_cache()
    if cache.enabled:
        print(cache.stats.summary(), file=out)


# ---------------------------------------------------------------------------


def _cmd_list(_args, out) -> int:
    print(f"{'name':14s} {'suite':32s} {'area':34s}", file=out)
    for spec in all_benchmarks():
        print(f"{spec.name:14s} {spec.suite:32s} {spec.area:34s}", file=out)
    return 0


def _cmd_fingerprint(args, out) -> int:
    """Stable content addresses, one per line: ``<sha256>  <name>``.

    CI keys its restored ``.repro-cache/`` on this output, so the cache
    is invalidated exactly when some module's canonical IR changes.
    """
    names = (args.benchmark,) if args.benchmark else BENCHMARK_NAMES
    if args.benchmark and args.benchmark not in BENCHMARK_NAMES:
        print(f"unknown benchmark {args.benchmark!r}; "
              f"available: {', '.join(BENCHMARK_NAMES)}", file=sys.stderr)
        return 2
    fingerprints = {
        name: module_fingerprint(build_module(name, args.scale))
        for name in names
    }
    if args.json:
        print(json.dumps({"scale": args.scale,
                          "fingerprints": fingerprints},
                         indent=2, sort_keys=True), file=out)
        return 0
    for name, fingerprint in fingerprints.items():
        print(f"{fingerprint}  {name}", file=out)
    return 0


def _cmd_show(args, out) -> int:
    module = build_module(args.benchmark, args.scale, args.input_seed)
    print(print_module(module), file=out)
    return 0


def _cmd_analyze(args, out) -> int:
    module = build_module(args.benchmark, args.scale, args.input_seed)
    if args.opt_level:
        module, opt_report = optimize(module, args.opt_level)
        print(f"optimized at O{args.opt_level}: "
              f"{opt_report.before_instructions} -> "
              f"{opt_report.after_instructions} static instructions "
              f"({opt_report.slots_promoted} slots promoted)", file=out)
    profile, _ = cached_profile(module)
    model = create_model(args.model, module, profile)
    overall = model.overall_sdc(samples=args.samples)
    print(f"program: {module.name} ({module.num_instructions} static, "
          f"{profile.dynamic_count} dynamic instructions)", file=out)
    print(f"model:   {args.model}", file=out)
    print(f"overall SDC probability:   {overall * 100:.2f}%", file=out)
    if args.model == "trident":
        crash = model.overall_crash(samples=args.samples)
        print(f"overall crash probability: {crash * 100:.2f}%", file=out)
    sdc_map = model.sdc_map()
    print(f"\ntop {args.top} SDC-prone instructions:", file=out)
    for iid in sorted(sdc_map, key=sdc_map.get, reverse=True)[: args.top]:
        inst = module.instruction(iid)
        print(f"  {sdc_map[iid] * 100:6.2f}%  {format_instruction(inst)}",
              file=out)
    if args.explain:
        print(file=out)
        for line in model.queries.explain():
            print(line, file=out)
    _print_cache_summary(out)
    return 0


def _cmd_cache(args, out) -> int:
    cache = get_cache()
    if not cache.enabled:
        print("artifact cache is disabled (--no-cache)", file=out)
        return 2
    if args.cache_command == "stats":
        usage = cache.disk_usage()
        if not usage:
            print(f"cache root {cache.root}: empty", file=out)
        else:
            print(f"cache root {cache.root}:", file=out)
            total_count = total_bytes = 0
            for kind in sorted(usage):
                count, size = usage[kind]
                total_count += count
                total_bytes += size
                print(f"  {kind:<12} {count:>6} entries  {size:>12,} bytes",
                      file=out)
            print(f"  {'total':<12} {total_count:>6} entries  "
                  f"{total_bytes:>12,} bytes", file=out)
    elif args.cache_command == "prune":
        removed, freed = cache.prune(args.max_bytes)
        print(f"pruned {removed} entries ({freed:,} bytes freed)", file=out)
    elif args.cache_command == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries", file=out)
    return 0


def _run_campaign(args, runs: int) -> CampaignResult:
    spec = ModuleSpec.from_benchmark(
        args.benchmark, args.scale, args.input_seed
    )
    return run_store_campaign(
        runs, seed=args.seed, spec=spec,
        settings=CampaignSettings(
            workers=max(1, args.workers), ci_halfwidth=args.ci_halfwidth,
            checkpoint=args.checkpoint,
            checkpoint_stride=args.checkpoint_stride,
            interp_tier=args.interp_tier,
            batch_lanes=args.batch_lanes,
        ),
    )


def _print_campaign_summary(campaign: CampaignResult, out) -> None:
    stopped = ""
    if campaign.stopped_early:
        stopped = (f" (stopped early after {campaign.rounds} rounds: "
                   f"CI target met)")
    print(f"runs executed: {campaign.total}/{campaign.runs_requested}"
          f"{stopped}", file=out)
    if campaign.from_cache:
        print(f"replayed from the artifact cache "
              f"({campaign.cpu_seconds:.2f} CPU s saved)", file=out)
    else:
        workers = (f"{campaign.workers} "
                   f"worker{'s' if campaign.workers != 1 else ''}")
        if campaign.degraded:
            workers += " (pool degraded to serial)"
        print(f"wall clock: {campaign.wall_seconds:.2f} s on {workers} "
              f"({campaign.cpu_seconds:.2f} CPU s)", file=out)
        if campaign.dynamic_instructions:
            mode = "checkpointed" if campaign.checkpointed else "cold"
            if campaign.checkpoint_degraded:
                mode += ", degraded to cold runs"
            print(f"throughput: {campaign.dynamic_instructions:,} dynamic "
                  f"instructions ({campaign.instructions_per_second:,.0f}/s, "
                  f"{campaign.skipped_instructions:,} skipped, "
                  f"{campaign.converged_trials:,} trials converged, "
                  f"{campaign.snapshot_bytes:,} snapshot bytes; {mode})",
                  file=out)
        if campaign.interp_tier:
            tier = f"interp tier: {campaign.interp_tier}"
            if campaign.interp_tier == TIER_BATCH:
                tier += (f" ({campaign.batch_lanes} lanes, "
                         f"{campaign.batch_divergences} divergences"
                         + (f", {campaign.batch_fallbacks} fallbacks"
                            if campaign.batch_fallbacks else "") + ")")
            print(tier, file=out)
            if campaign.interp_tier == TIER_BATCH:
                print(f"reconvergence: {campaign.batch_reconverged} "
                      f"branches re-merged, {campaign.batch_drains} "
                      f"lanes drained "
                      f"({campaign.drain_fraction * 100:.1f}% of "
                      f"instructions on the drain path)", file=out)
    _print_cache_summary(out)


def _cmd_inject(args, out) -> int:
    try:
        campaign = _run_campaign(args, args.runs)
    except CampaignInterrupted as exc:
        _print_interrupted(exc.result, args.benchmark, out)
        return 130
    print(f"program: {args.benchmark}; {campaign.total} injections",
          file=out)
    for outcome in OUTCOMES:
        probability = campaign.probability(outcome)
        margin = campaign.margin_of_error(outcome)
        print(f"  {outcome:9s} {probability * 100:6.2f}% "
              f"(± {margin * 100:.2f}%)", file=out)
    _print_campaign_summary(campaign, out)
    return 0


def _print_interrupted(partial, benchmark: str, out) -> int:
    """Report a Ctrl-C'd campaign: partial counts + resumable ranges."""
    print(f"interrupted: {benchmark}; {partial.total}/"
          f"{partial.runs_requested} injections completed", file=out)
    for outcome in OUTCOMES:
        probability = partial.probability(outcome)
        print(f"  {outcome:9s} {probability * 100:6.2f}%", file=out)
    if partial.completed_ranges:
        spans = ", ".join(f"[{start}, {start + count})"
                          for start, count in partial.completed_ranges)
        print(f"completed seed ranges: {spans}", file=out)
        print("completed shards are checkpointed in the result store; "
              "re-run the same command to resume", file=out)
    return 130


def _cmd_protect(args, out) -> int:
    module = build_module(args.benchmark, args.scale, args.input_seed)
    profile, _ = cached_profile(module)
    outcome = evaluate_protection(
        module, profile, args.model, args.budget, fi_samples=args.runs
    )
    print(f"program: {module.name}; model: {args.model}; "
          f"budget: {args.budget:.0%} of full duplication", file=out)
    print(f"instructions protected: {len(outcome.selected_iids)}", file=out)
    print(f"measured overhead:      {outcome.measured_overhead:.1%}",
          file=out)
    print(f"SDC before:             {outcome.baseline_sdc:.2%}", file=out)
    print(f"SDC after:              {outcome.protected_sdc:.2%}", file=out)
    print(f"SDC reduction:          {outcome.sdc_reduction:.0%}", file=out)
    print(f"faults detected:        "
          f"{outcome.protected.detected_probability:.2%}", file=out)
    _print_cache_summary(out)
    return 0


def _cmd_report(args, out) -> int:
    module = build_module(args.benchmark, args.scale, args.input_seed)
    profile, _ = cached_profile(module)
    fi = _run_campaign(args, args.fi_runs) if args.fi_runs > 0 else None
    report = generate_report(
        module, profile, target_sdc=args.target,
        overhead_budget=args.budget, fi=fi,
    )
    print(report.render(), file=out)
    _print_cache_summary(out)
    return 0


def _cmd_experiment(args, out) -> int:
    config = ExperimentConfig(
        scale=args.scale,
        fi_samples=args.fi_samples,
        model_samples=args.fi_samples,
        fi_workers=args.workers,
        fi_ci_halfwidth=args.ci_halfwidth,
        fi_checkpoint=args.checkpoint,
        fi_checkpoint_stride=args.checkpoint_stride,
        interp_tier=args.interp_tier,
        batch_lanes=args.batch_lanes,
    )
    workspace = Workspace(config)
    names = list(EXPERIMENTS) if args.id == "all" else [args.id]
    for name in names:
        result = run_experiment(name, workspace)
        print(result.render(), file=out)
        print(file=out)
    _print_cache_summary(out)
    return 0


# -- service verbs ----------------------------------------------------------


def _client_for(args):
    from .serve import ServiceClient, default_host, default_port
    host = args.host if args.host is not None else default_host()
    port = args.port if args.port is not None else default_port()
    return ServiceClient(host, port, timeout=args.timeout)


def _cmd_serve(args, _out) -> int:
    from .serve import ServiceDaemon, run_daemon
    daemon = ServiceDaemon(
        host=args.host, port=args.port, workers=args.workers,
        max_pending=args.max_pending,
    )
    return run_daemon(daemon, port_file=args.port_file)


def _cmd_submit(args, out) -> int:
    from .serve import ServiceError
    client = _client_for(args)
    payload = {
        "benchmark": args.benchmark,
        "scale": args.scale,
        "input_seed": args.input_seed,
        "runs": args.runs,
        "seed": args.seed,
        "workers": max(1, args.workers),
        "checkpoint": args.checkpoint,
        "checkpoint_stride": args.checkpoint_stride,
        "batch_lanes": args.batch_lanes,
        "priority": args.priority,
    }
    if args.ci_halfwidth is not None:
        payload["ci_halfwidth"] = args.ci_halfwidth
    if args.interp_tier is not None:
        payload["interp_tier"] = args.interp_tier
    try:
        job = client.submit(payload, wait=not args.no_wait)
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 3 if exc.status == 429 else 2
    except OSError as exc:
        print(f"cannot reach daemon at {client.host}:{client.port}: {exc}",
              file=sys.stderr)
        return 2
    return _print_job(job, args, out)


def _cmd_status(args, out) -> int:
    from .serve import ServiceError
    client = _client_for(args)
    try:
        if args.job_id:
            job = client.job(args.job_id, wait=args.wait)
            return _print_job(job, args, out)
        stats = client.stats()
    except ServiceError as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot reach daemon at {client.host}:{client.port}: {exc}",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True), file=out)
        return 0
    print(f"daemon at {client.host}:{client.port}: "
          f"up {stats['uptime_seconds']:.1f} s", file=out)
    jobs = stats.get("jobs", {})
    if jobs:
        summary = " ".join(f"{status}={count}"
                           for status, count in sorted(jobs.items()))
        print(f"jobs: {summary}", file=out)
    print(f"queue pending: {stats.get('pending', 0)}", file=out)
    counters = stats.get("counters", {})
    if counters:
        summary = " ".join(f"{name}={counters[name]}"
                           for name in sorted(counters))
        print(f"scheduler: {summary}", file=out)
    store = stats.get("store", {})
    if store:
        state = "enabled" if store.get("enabled") else "disabled"
        print(f"store: {store.get('root')} ({state})", file=out)
    return 0


def _print_job(job: dict, args, out) -> int:
    if args.json:
        print(json.dumps(job, indent=2, sort_keys=True), file=out)
        return 1 if job.get("status") == "failed" else 0
    line = f"job {job['job_id']}: {job['status']}"
    extras = []
    if job.get("cached"):
        extras.append("served from the result store")
    if job.get("coalesced"):
        extras.append(f"coalesced {job['coalesced']} duplicate submits")
    if extras:
        line += " (" + "; ".join(extras) + ")"
    print(line, file=out)
    if job.get("status") == "failed":
        print(f"error: {job.get('error')}", file=out)
        return 1
    body = job.get("result")
    if body is None:
        print(f"fingerprint: {job['fingerprint']}", file=out)
        return 0
    campaign = CampaignResult.from_dict(body)
    print(f"fingerprint: {job['fingerprint']}; "
          f"{campaign.total} injections", file=out)
    for outcome in OUTCOMES:
        probability = campaign.probability(outcome)
        margin = campaign.margin_of_error(outcome)
        print(f"  {outcome:9s} {probability * 100:6.2f}% "
              f"(± {margin * 100:.2f}%)", file=out)
    if body.get("from_cache"):
        print("replayed from the shared result store "
              "(zero trials executed)", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
