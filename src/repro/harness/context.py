"""Shared per-benchmark state for the experiment harness.

Building a module, profiling it, and constructing engine + injector is
common to every experiment; :class:`BenchmarkContext` does it once and
caches the pieces, and :class:`ExperimentConfig` concentrates the size
knobs so scaled-down CI runs and full evaluation runs share code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from ..bench.registry import BENCHMARK_NAMES, build_module, get_benchmark
from ..cache import cached_profile
from ..core.simple_models import create_model
from ..core.trident import Trident
from ..fi.campaign import CampaignResult, FaultInjector
from ..interp.engine import ExecutionEngine
from ..ir.module import Module
from ..profiling.profile import ProgramProfile
from ..sched.executor import run_store_campaign
from ..sched.shard import golden_summary
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

    def campaign_settings(self) -> CampaignSettings:
        """The scheduler settings every harness campaign runs under."""
        return CampaignSettings(
            workers=max(1, self.fi_workers),
            ci_halfwidth=self.fi_ci_halfwidth,
            checkpoint=self.fi_checkpoint,
            checkpoint_stride=self.fi_checkpoint_stride,
            interp_tier=self.interp_tier,
            batch_lanes=self.batch_lanes,
        )


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
    def profile(self) -> ProgramProfile:
        """The profile, warm-started from the artifact cache.

        A hit skips the instrumented profiling run entirely; a miss
        profiles and cross-checks the outputs against the golden run,
        whose summary is then in the store for every later run —
        including campaign workers in other processes.
        """
        profile, outputs = cached_profile(self.module)
        if outputs is not None and outputs != golden_summary(
                self.module, self.engine).outputs:
            raise RuntimeError(
                f"{self.name}: profiler and engine disagree on outputs"
            )
        return profile

    @cached_property
    def engine(self) -> ExecutionEngine:
        return ExecutionEngine(self.module)

    @cached_property
    def injector(self) -> FaultInjector:
        """The injector on :attr:`engine`; a campaign run on it sets its
        tier, lanes and checkpoints from the config per shard."""
        return FaultInjector(self.module, self.engine,
                             golden=golden_summary(self.module, self.engine))

    def model(self, name: str, shared: bool = True) -> Trident:
        """A freshly-built model over the cached profile.

        With ``shared`` (the default) its query engine reads and writes
        the process-wide per-function stores and their persisted
        per-instruction results; fig6's timing sweeps pass
        ``shared=False`` to measure true cold inference cost on an
        isolated engine.
        """
        return create_model(name, self.module, self.profile, shared=shared)

    def fi_campaign(self, runs: int | None = None, seed: int | None = None,
                    target: int | None = None) -> CampaignResult:
        """FI campaign honoring the config's worker/early-stop knobs,
        into static instruction ``target`` in every run when one is
        named.

        Identical counts to ``injector.campaign`` for any worker count;
        with ``fi_ci_halfwidth`` set it may execute fewer runs.  Merged
        counts are content-addressed in the artifact cache, so a rerun
        with the same module/seed/stopping rule/target replays them
        instead of re-injecting (and the key excludes the worker count
        whenever the executed run set cannot depend on it).
        """
        config = self.config
        settings = config.campaign_settings()
        if target is not None:
            # A per-instruction campaign runs serially: its 25-100 runs
            # cannot pay for a worker pool, and a Table II render runs
            # hundreds of them.
            settings = replace(settings, workers=1)
        return run_store_campaign(
            config.fi_samples if runs is None else runs,
            config.seed if seed is None else seed,
            spec=ModuleSpec.from_benchmark(self.name, config.scale),
            injector=lambda: self.injector,  # only built on a cache miss
            module=self.module,
            settings=settings,
            target=target,
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
