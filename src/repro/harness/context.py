"""Shared per-benchmark state for the experiment harness.

Building a module, profiling it, and constructing engine + injector is
common to every experiment; :class:`BenchmarkContext` does it once and
caches the pieces, and :class:`ExperimentConfig` concentrates the size
knobs so scaled-down CI runs and full evaluation runs share code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..bench.registry import BENCHMARK_NAMES, build_module, get_benchmark
from ..cache import (
    GoldenSummary,
    get_cache,
    golden_key,
    load_cached_profile,
    load_golden_summary,
    module_fingerprint,
    profile_key,
    store_cached_profile,
    store_golden_summary,
)
from ..core.simple_models import create_model
from ..core.trident import Trident
from ..fi.campaign import CampaignResult, FaultInjector
from ..interp.engine import ExecutionEngine
from ..ir.module import Module
from ..profiling.profile import ProgramProfile
from ..profiling.profiler import ProfilingInterpreter
from ..sched.executor import run_store_campaign
from ..sched.spec import CampaignSettings, ModuleSpec


@dataclass(frozen=True)
class ExperimentConfig:
    """Size knobs for one harness run.

    Defaults are a fast-but-meaningful configuration; the paper-scale
    equivalents (3000 FI samples, 100 per-instruction runs, 11 programs)
    are what EXPERIMENTS.md records.
    """

    scale: str = "small"
    fi_samples: int = 600
    model_samples: int = 600
    per_instruction_runs: int = 40
    max_instructions: int = 120  # cap for per-instruction experiments
    protection_fi_samples: int = 500
    seed: int = 2018
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES
    #: Worker processes for FI campaigns (1 = serial, in-process).
    fi_workers: int = 1
    #: Early-stopping target: stop a campaign once the Wilson 95% CI
    #: half-width on the SDC probability is below this (None = run all).
    fi_ci_halfwidth: float | None = None
    #: Checkpoint-and-fork FI trials (suffix-only execution).  Counts
    #: are invariant to both knobs; stride 0 picks one automatically.
    fi_checkpoint: bool = True
    fi_checkpoint_stride: int = 0
    #: Interpreter tier ("codegen"/"batch"); None = resolved default
    #: (REPRO_INTERP_TIER env, else codegen).  Outcomes are invariant
    #: across tiers.
    interp_tier: str | None = None
    #: Trials per lockstep group on the batch tier (0 = tier default).
    #: A wall-clock knob only: counts are identical for any lane count.
    batch_lanes: int = 0


#: Small config used by the pytest benchmarks to keep runtimes bounded.
QUICK = ExperimentConfig(
    scale="test", fi_samples=200, model_samples=200,
    per_instruction_runs=20, max_instructions=60,
    protection_fi_samples=200,
    benchmarks=("pathfinder", "bfs_rodinia", "hotspot"),
)


class BenchmarkContext:
    """Lazily built module/profile/engine/injector for one benchmark."""

    def __init__(self, name: str, config: ExperimentConfig):
        self.name = name
        self.config = config
        self.spec = get_benchmark(name)

    @cached_property
    def module(self) -> Module:
        return build_module(self.name, self.config.scale)

    @cached_property
    def fingerprint(self) -> str:
        """Content address of the module (canonical-IR SHA-256)."""
        return module_fingerprint(self.module)

    @cached_property
    def profile(self) -> ProgramProfile:
        """The profile, warm-started from the artifact cache.

        A hit skips the instrumented profiling run entirely; a miss
        profiles, cross-checks the outputs against the engine's golden
        run as before, then persists both the profile and the golden
        summary under the module fingerprint for every later run —
        including campaign workers in other processes.
        """
        cache = get_cache()
        key = profile_key(self.fingerprint)
        cached = load_cached_profile(cache, key)
        if cached is not None:
            return cached
        profile, outputs = ProfilingInterpreter(self.module).run()
        golden = self.engine.golden()
        if outputs != golden.outputs:
            raise RuntimeError(
                f"{self.name}: profiler and engine disagree on outputs"
            )
        store_cached_profile(cache, key, profile, outputs)
        gkey = golden_key(self.fingerprint)
        if load_golden_summary(cache, gkey) is None:
            store_golden_summary(cache, gkey, GoldenSummary.from_run(golden))
        return profile

    @cached_property
    def engine(self) -> ExecutionEngine:
        return ExecutionEngine(self.module)

    @cached_property
    def injector(self) -> FaultInjector:
        golden = load_golden_summary(get_cache(), golden_key(self.fingerprint))
        return FaultInjector(self.module, self.engine, golden=golden,
                             interp_tier=self.config.interp_tier,
                             batch_lanes=self.config.batch_lanes)

    def model(self, name: str, warm: bool = True) -> Trident:
        """A freshly-built model over the cached profile.

        With ``warm`` (the default) the model's per-instruction results
        are restored from — and persisted back to — the artifact cache
        and its query engine shares the process-wide per-function
        stores; fig6's timing sweeps pass ``warm=False`` to measure true
        cold inference cost on an isolated engine.
        """
        return create_model(name, self.module, self.profile, warm=warm)

    def fi_campaign(self, runs: int | None = None,
                    seed: int | None = None) -> CampaignResult:
        """FI campaign honoring the config's worker/early-stop knobs.

        Identical counts to ``injector.campaign`` for any worker count;
        with ``fi_ci_halfwidth`` set it may execute fewer runs.  Merged
        counts are content-addressed in the artifact cache, so a rerun
        with the same module/seed/stopping rule replays them instead of
        re-injecting (and the key excludes the worker count whenever the
        executed run set cannot depend on it).
        """
        config = self.config
        if runs is None:
            runs = config.fi_samples
        if seed is None:
            seed = config.seed
        return run_store_campaign(
            runs, seed,
            spec=ModuleSpec.from_benchmark(self.name, config.scale),
            injector=lambda: self.injector,  # only built on a cache miss
            module=self.module,
            settings=CampaignSettings(
                workers=max(1, config.fi_workers),
                ci_halfwidth=config.fi_ci_halfwidth,
                checkpoint=config.fi_checkpoint,
                checkpoint_stride=config.fi_checkpoint_stride,
                interp_tier=config.interp_tier,
                batch_lanes=config.batch_lanes,
            ),
        )


class Workspace:
    """All benchmark contexts for one harness configuration."""

    def __init__(self, config: ExperimentConfig | None = None):
        self.config = config or ExperimentConfig()
        self._contexts: dict[str, BenchmarkContext] = {}

    def context(self, name: str) -> BenchmarkContext:
        if name not in self._contexts:
            self._contexts[name] = BenchmarkContext(name, self.config)
        return self._contexts[name]

    def contexts(self) -> list[BenchmarkContext]:
        return [self.context(name) for name in self.config.benchmarks]
