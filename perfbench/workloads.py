"""The four benchmark workloads and the per-run measurement context.

Each workload runs repetitions (``rep``) until the run's time is up.  A
repetition times the workload's *primary* and *secondary* operations,
checks every output against the committed oracle, and counts each
operation as attempted, and as failed when it raised or disagreed.
WORKLOADS.md says why each workload exists and which layer it loads.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from repro.bench.registry import BENCHMARK_NAMES, build_module
from repro.cache import (
    configure_cache,
    get_cache,
    load_cached_profile,
    module_fingerprint,
    profile_key,
    store_cached_profile,
)
from repro.core.simple_models import MODEL_NAMES, create_model
from repro.harness.context import ExperimentConfig, Workspace
from repro.harness.runner import run_experiment
from repro.profiling.profiler import ProfilingInterpreter
from repro.profiling.serialize import profile_to_dict
from repro.query.engine import reset_query_stores
from repro.sched.executor import run_store_campaign
from repro.sched.spec import CampaignSettings, ModuleSpec
from repro.serve.client import ServiceClient

from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# predict: the paper's headline path, prediction without fault injection.
PREDICT_SCALE = "default"
MODEL_SAMPLES = 3000
MODEL_SEED = 2018

# fig5: the harness defaults of benchmarks/conftest.py, codegen tier.
FIG5_CONFIG = ExperimentConfig(
    scale="test", fi_samples=400, model_samples=400,
    per_instruction_runs=25, max_instructions=60, protection_fi_samples=300,
    seed=2018, benchmarks=BENCHMARK_NAMES, fi_workers=1, fi_checkpoint=True,
    interp_tier="codegen",
)

# predict and fig5: the warm operation is short, so each repetition runs
# it this many times after the cold one to give it as many samples.
WARM_REPEATS = 3

# inject: one dense, one branchy and one divergent program, on both tiers.
INJECT_PROGRAMS = ("sad", "pathfinder", "bfs_parboil")
INJECT_TIERS = ("codegen", "batch")
INJECT_RUNS = 1000
INJECT_SEED = 0
BATCH_LANES = 64

# service: campaign seeds come from a small pool, so a round of requests
# is half first sight (misses that execute) and half store hits.
SERVICE_RUNS = 200
SERVICE_SEED_POOL = (0, 1, 2, 3)


def collect_garbage() -> None:
    """Start each timed operation with the same garbage-collector state.

    The benchmark process outlives many operations and its heap grows,
    so without this a full collection lands in a different operation
    each run; one process per operation, as the CLI runs, has none.
    """
    gc.collect()


class Context:
    """One run's inputs, scratch space, timings and failure count."""

    def __init__(self, *, rng, oracle, out_dir: Path, tiny: bool):
        self.rng = rng
        self.oracle = oracle
        self.tiny = tiny
        self.tracer = None
        self.calibrator = Calibrator()
        self.scratch = out_dir / f"run-{os.getpid()}"
        self._stores = 0
        #: operation name -> (start, end) perf_counter times; "setup"
        #: survives reset()
        self.timings: dict[str, list[tuple[float, float]]] = {}
        #: peak RSS in MB after each repetition: of this process, whose
        #: RSS grows with repetitions, so metrics read the first; or of
        #: the service daemon, fresh in every round
        self.rss: list[float] = []
        #: exact per-run facts printed beside the metrics
        self.facts: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    # -- bookkeeping -------------------------------------------------------

    def record(self, name: str, started: float) -> None:
        """One operation of ``name`` that ran from ``started`` to now."""
        self.timings.setdefault(name, []).append(
            (started, time.perf_counter()))

    def seconds(self, name: str) -> list[float]:
        """Durations of ``name`` at the reference machine speed."""
        samples = self.calibrator.samples()
        return [(end - start) * Calibrator.scale(samples, start, end)
                for start, end in self.timings.get(name, [])]

    def reset(self) -> None:
        """Forget timings (after a warm-up or an untraced phase)."""
        self.timings = {"setup": self.timings.get("setup", [])}
        self.rss.clear()

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a wrong output is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def fresh_store(self) -> Path:
        """A new empty store directory; the previous one is deleted."""
        if self._stores:
            shutil.rmtree(self.scratch / f"store-{self._stores}",
                          ignore_errors=True)
        self._stores += 1
        return self.scratch / f"store-{self._stores}"

    def cleanup(self) -> None:
        self.calibrator.stop()
        shutil.rmtree(self.scratch, ignore_errors=True)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def stable_profile_digest(profile) -> str:
    """``repro.cache.profile_digest`` without the profiler's wall time.

    The profile's serialized form includes ``profiling_seconds``, so the
    program's own digest differs from run to run; the oracle digests
    everything else.
    """
    data = profile_to_dict(profile)
    data.pop("profiling_seconds")
    canonical = json.dumps(data, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values, min_beyond: int = 10):
    """(percentile, value, n): the highest percentile with at least
    ``min_beyond`` samples above it, or None when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= min_beyond:
            return pct, ordered[rank - 1], n
    return None


# ---------------------------------------------------------------------------


class Predict:
    """Cold prediction of every program, then a warm re-prediction."""

    name = "predict"
    warmup = True

    def __init__(self, ctx: Context):
        self.programs = (("pathfinder", "bfs_parboil") if ctx.tiny
                         else BENCHMARK_NAMES)

    def predict_one(self, ctx: Context, name: str):
        """The ``repro analyze`` path for the three models of Fig. 5."""
        with ctx.span("bench.build"):
            module = build_module(name, PREDICT_SCALE)
        with ctx.span("cache.fingerprint"):
            key = profile_key(module_fingerprint(module))
        cache = get_cache()
        profile = load_cached_profile(cache, key)
        hit = profile is not None
        if not hit:
            profile, outputs = ProfilingInterpreter(module).run()
            store_cached_profile(cache, key, profile, outputs)
        sdc = {
            model: create_model(model, module, profile).overall_sdc(
                samples=MODEL_SAMPLES, seed=MODEL_SEED)
            for model in MODEL_NAMES
        }
        return hit, profile, sdc

    def rep(self, ctx: Context) -> None:
        order = ctx.rng.sample(list(self.programs), len(self.programs))
        configure_cache(ctx.fresh_store())
        phases = [("cold", False)] + [("warm", True)] * WARM_REPEATS
        for phase, expect_hit in phases:
            reset_query_stores()
            collect_garbage()
            results = {}
            for name in order:
                started = time.perf_counter()
                try:
                    results[name] = self.predict_one(ctx, name)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    results[name] = exc
                ctx.record(f"{phase}:{name}", started)
            for name, got in results.items():
                problem = self._mismatch(ctx, name, got, expect_hit)
                ctx.check(not problem, f"predict {name} ({phase}): {problem}")
        ctx.rss.append(own_peak_rss_mb())

    @staticmethod
    def _mismatch(ctx, name, got, expect_hit) -> str:
        if isinstance(got, Exception):
            return repr(got)
        hit, profile, sdc = got
        want = ctx.oracle["predict"][name]
        if hit != expect_hit:
            return f"profile store hit={hit}, expected {expect_hit}"
        if sdc != want["sdc"]:
            return f"SDC {sdc} != {want['sdc']}"
        # A warm profile is the cold one read back; digest it once.
        if not hit and stable_profile_digest(profile) != want["profile_digest"]:
            return "profile digest differs"
        return ""

    def metrics(self, ctx: Context):
        # A pass is the sum over programs of each program's median time,
        # so every program's time is scaled by the speed while it ran.
        cold = sum(_median(ctx.seconds(f"cold:{name}"))
                   for name in self.programs)
        warm = sum(_median(ctx.seconds(f"warm:{name}"))
                   for name in self.programs)
        per_pass = len(self.programs)
        lines = [f"predict_s {cold:.4f} s (cold, {per_pass} programs at "
                 f"{PREDICT_SCALE} scale)",
                 f"predict_warm_s {warm:.4f} s (profiles and model "
                 f"results from the store)"]
        return {
            "primary_ms": cold * 1e3,
            "secondary_ms": warm * 1e3,
            "ops_per_s": (1 + WARM_REPEATS) * per_pass
                         / (cold + WARM_REPEATS * warm),
            "peak_rss_mb": ctx.rss[0],
        }, lines


class Fig5:
    """``experiment fig5`` cold on an empty store, then warm re-render."""

    name = "fig5"
    warmup = True

    def __init__(self, ctx: Context):
        pass

    def rep(self, ctx: Context) -> None:
        configure_cache(ctx.fresh_store())
        renders = []
        for phase in ["primary"] + ["secondary"] * WARM_REPEATS:
            reset_query_stores()
            collect_garbage()
            started = time.perf_counter()
            try:
                render = run_experiment("fig5", Workspace(FIG5_CONFIG)).render()
            except Exception as exc:  # noqa: BLE001 - counted as failed
                render = exc
            ctx.record(phase, started)
            renders.append(render)
        want = ctx.oracle["fig5"]["render_sha256"]
        for index, render in enumerate(renders):
            ok = (isinstance(render, str) and render == renders[0]
                  and hashlib.sha256(render.encode()).hexdigest() == want)
            phase = "warm" if index else "cold"
            ctx.check(ok, f"fig5 {phase} render differs from the oracle")
        ctx.rss.append(own_peak_rss_mb())

    def metrics(self, ctx: Context):
        cold, warm = ctx.seconds("primary"), ctx.seconds("secondary")
        lines = [f"artifact_cold_s {_median(cold):.4f} s "
                 f"(median of {len(cold)})",
                 f"artifact_warm_s {_median(warm):.4f} s "
                 f"(median of {len(warm)})"]
        return {
            "primary_ms": _median(cold) * 1e3,
            "secondary_ms": _median(warm) * 1e3,
            "ops_per_s": (1 + WARM_REPEATS)
                         / (_median(cold) + WARM_REPEATS * _median(warm)),
            "peak_rss_mb": ctx.rss[0],
        }, lines


class Inject:
    """1000-run ``repro inject`` campaigns, each on a fresh store."""

    name = "inject"
    warmup = True

    def __init__(self, ctx: Context):
        self.programs = ("pathfinder",) if ctx.tiny else INJECT_PROGRAMS
        self.campaigns = [(program, tier) for program in self.programs
                          for tier in INJECT_TIERS]

    def rep(self, ctx: Context) -> None:
        order = ctx.rng.sample(self.campaigns, len(self.campaigns))
        for program, tier in order:
            configure_cache(ctx.fresh_store())
            settings = CampaignSettings(
                workers=1, checkpoint=True, interp_tier=tier,
                batch_lanes=BATCH_LANES if tier == "batch" else 0,
            )
            collect_garbage()
            started = time.perf_counter()
            try:
                with ctx.span("sched.store_campaign"):
                    result = run_store_campaign(
                        INJECT_RUNS, INJECT_SEED,
                        spec=ModuleSpec.from_benchmark(program, "test"),
                        settings=settings,
                    )
            except Exception as exc:  # noqa: BLE001 - counted as failed
                result = exc
            ctx.record(f"{tier}:{program}", started)
            ok = (not isinstance(result, Exception)
                  and result.counts == ctx.oracle["inject"][program]
                  and not result.from_cache
                  and result.interp_tier == tier
                  and result.batch_fallbacks == 0)
            ctx.check(ok, f"inject {program} on {tier}: {result!r:.300}")
            if ok:
                ctx.facts[f"{tier}:{program}"] = result.dynamic_instructions
        ctx.rss.append(own_peak_rss_mb())

    def metrics(self, ctx: Context):
        rates = {}
        lines = [f"{'program':12s} {'tier':8s} {'median s':>9s} "
                 f"{'trials/s':>9s} {'dynamic instructions':>21s}"]
        for program in self.programs:
            for tier in INJECT_TIERS:
                seconds = _median(ctx.seconds(f"{tier}:{program}"))
                rate = INJECT_RUNS / seconds if seconds else 0.0
                rates[tier, program] = rate
                lines.append(
                    f"{program:12s} {tier:8s} {seconds:9.4f} {rate:9.1f} "
                    f"{ctx.facts.get(f'{tier}:{program}', 0):21,d}")
        per_tier = {
            tier: _geomean([rates[tier, p] for p in self.programs])
            for tier in INJECT_TIERS
        }
        for tier in INJECT_TIERS:
            lines.append(f"{tier}_trials_per_s {per_tier[tier]:.1f} 1/s "
                         f"(geometric mean over {len(self.programs)} "
                         f"programs)")
        lines.append("dynamic instructions count lockstep steps once per "
                     "group on batch: compare tiers in trials/s only")
        # A campaign's time, as the geometric mean over programs.
        return {
            "primary_ms": INJECT_RUNS / per_tier["codegen"] * 1e3,
            "secondary_ms": INJECT_RUNS / per_tier["batch"] * 1e3,
            "ops_per_s": _geomean(list(rates.values())),
            "peak_rss_mb": ctx.rss[0],
        }, lines


class Daemon:
    """A ``repro serve`` subprocess on its own empty store."""

    def __init__(self, ctx: Context, trace_file: Path | None):
        self.trace_file = trace_file
        ctx.scratch.mkdir(parents=True, exist_ok=True)
        self.port_file = ctx.scratch / "daemon.port"
        self.port_file.unlink(missing_ok=True)
        store = ctx.fresh_store()
        args = ["--cache-dir", str(store), "serve", "--host", "127.0.0.1",
                "--port", "0", "--workers", "1",
                "--port-file", str(self.port_file)]
        if trace_file is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(HERE / "serve_child.py"),
                       str(trace_file), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.log = open(ctx.scratch / "daemon.log", "ab")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self.log,
        )
        try:
            self.client = self._wait_ready(
                deadline=time.perf_counter() + 60.0)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, deadline: float) -> ServiceClient:
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with code {self.proc.returncode}")
            try:
                port = int(self.port_file.read_text())
                client = ServiceClient("127.0.0.1", port, timeout=120.0)
                client.health()
                return client
            except (OSError, ValueError):
                time.sleep(0.005)
        raise RuntimeError("daemon did not answer health checks in 60 s")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGINT (the daemon's clean shutdown), then wait for exit."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.log.close()


class Service:
    """Closed-loop ``POST /v1/campaigns`` with wait, one connection."""

    name = "service"
    warmup = False
    #: Health round trips per round in traced runs (HTTP layer alone).
    health_probes = 20

    def __init__(self, ctx: Context):
        programs = (("pathfinder", "bfs_parboil", "nw") if ctx.tiny
                    else BENCHMARK_NAMES)
        self.keys = [(name, seed) for name in programs
                     for seed in SERVICE_SEED_POOL]
        self.requests_per_round = 2 * len(self.keys)

    def sequence(self, rng) -> list[tuple[tuple[str, int], bool]]:
        """Every key once as a first sight, plus as many repeats.

        Each round covers the same set of misses, so the request mix
        does not depend on the seed; only the order and the repeated
        keys do.  A repeat is always of a key already seen.
        """
        keys = rng.sample(self.keys, len(self.keys))
        kinds = [False] * len(keys) + [True] * len(keys)
        rng.shuffle(kinds)
        first_miss = kinds.index(False)
        kinds[0], kinds[first_miss] = kinds[first_miss], kinds[0]
        fresh = iter(keys)
        seen: list[tuple[str, int]] = []
        requests = []
        for hit in kinds:
            if hit:
                requests.append((rng.choice(seen), True))
            else:
                seen.append(next(fresh))
                requests.append((seen[-1], False))
        return requests

    def spawn(self, ctx: Context) -> Daemon:
        trace_file = None
        if ctx.tracer is not None:
            trace_file = ctx.scratch / "daemon-trace.json"
            trace_file.unlink(missing_ok=True)
        started = time.perf_counter()
        daemon = Daemon(ctx, trace_file)
        ctx.record("setup", started)
        return daemon

    def stop(self, ctx: Context, daemon: Daemon) -> None:
        daemon.stop()
        if daemon.trace_file is not None and daemon.trace_file.exists():
            ctx.tracer.absorb(str(daemon.trace_file))

    def rep(self, ctx: Context) -> None:
        requests = self.sequence(ctx.rng)
        daemon = self.spawn(ctx)
        try:
            client = daemon.client
            for (program, seed), hit in requests:
                payload = {"benchmark": program, "scale": "test",
                           "runs": SERVICE_RUNS, "seed": seed,
                           "workers": 1, "checkpoint": True}
                sent = time.perf_counter()
                try:
                    with ctx.span("serve.request"):
                        job = client.submit(payload, wait=True)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    job = {"error": repr(exc)}
                ctx.record("secondary" if hit else "primary", sent)
                want = ctx.oracle["service"][f"{program}:{seed}"]
                ok = (job.get("status") == "done"
                      and job.get("cached") is hit
                      and job.get("result", {}).get("counts") == want)
                ctx.check(ok, f"service {program}:{seed} hit={hit}: "
                              f"{job!r:.200}")
            if ctx.tracer is not None:
                for _ in range(self.health_probes):
                    sent = time.perf_counter()
                    client.health()
                    ctx.record("health", sent)
                for name, value in client.stats()["counters"].items():
                    ctx.tracer.count(f"sched.{name}", value)
            ctx.rss.append(daemon.peak_rss_mb())
        finally:
            self.stop(ctx, daemon)

    def extra_setup(self, ctx: Context, count: int) -> None:
        """Spawn-and-stop daemons only to sample set-up time."""
        for _ in range(count):
            self.stop(ctx, self.spawn(ctx))

    def metrics(self, ctx: Context):
        misses, hits = ctx.seconds("primary"), ctx.seconds("secondary")
        # Closed loop with no think time: requests over their latency.
        rate = (len(misses) + len(hits)) / (sum(misses) + sum(hits))
        lines = [f"requests_per_s {rate:.2f} 1/s (closed loop, one "
                 f"connection, {self.requests_per_round} requests per "
                 f"round, {len(misses) + len(hits)} requests)"]
        for label, values in (("miss", misses), ("hit", hits)):
            lines.append(f"{label}_p50_ms {_median(values) * 1e3:.3f} ms "
                         f"(n={len(values)})")
            found = tail(values)
            if found is None:
                lines.append(f"{label}_tail_ms n/a (n={len(values)} leaves "
                             f"fewer than 10 samples beyond any percentile)")
            else:
                pct, value, n = found
                lines.append(f"{label}_tail_ms {value * 1e3:.3f} ms "
                             f"(p{pct:g}, n={n})")
        return {
            "primary_ms": _median(misses) * 1e3,
            "secondary_ms": _median(hits) * 1e3,
            "ops_per_s": rate,
            "peak_rss_mb": _median(ctx.rss),
        }, lines


WORKLOADS = {cls.name: cls for cls in (Predict, Fig5, Inject, Service)}
