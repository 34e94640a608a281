"""Picklable specifications shared by every campaign entry point.

These are the nouns of the scheduler layer: what module to run
(:class:`ModuleSpec`), how to run it (:class:`CampaignSettings`), one
shard of work (:class:`ShardSpec`) and its outcome
(:class:`ShardResult`).  All four are plain data — a shard can cross a
``multiprocessing`` pipe, an HTTP request body, or a JSON checkpoint in
the shared result store without losing anything, which is what lets the
CLI pool, the service daemon and independent "remote" workers execute
the same campaign and merge bit-identical counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fi.campaign import OUTCOMES, SDC
from ..ir.module import Module
from ..stats.confidence import Z_95

#: Outcome the stopping rule watches by default.
DEFAULT_CI_OUTCOME = SDC


@dataclass(frozen=True)
class ModuleSpec:
    """Picklable recipe a worker uses to re-materialize a Module."""

    benchmark: str | None = None
    scale: str = "default"
    input_seed: int = 0
    ir_text: str | None = None

    @classmethod
    def from_benchmark(cls, name: str, scale: str = "default",
                       input_seed: int = 0) -> "ModuleSpec":
        return cls(benchmark=name, scale=scale, input_seed=input_seed)

    @classmethod
    def from_module(cls, module: Module) -> "ModuleSpec":
        """Spec for an arbitrary (e.g. optimized or protected) module,
        shipped as printed IR and re-parsed in the worker."""
        from ..ir.printer import print_module
        return cls(ir_text=print_module(module))

    def materialize(self) -> Module:
        if self.benchmark is not None:
            from ..bench.registry import build_module
            return build_module(self.benchmark, self.scale, self.input_seed)
        if self.ir_text is None:
            raise ValueError("ModuleSpec names neither a benchmark nor IR")
        from ..ir.parser import parse_module
        return parse_module(self.ir_text)

    # -- wire form (the service protocol) -------------------------------

    def to_dict(self) -> dict:
        payload: dict = {}
        if self.benchmark is not None:
            payload["benchmark"] = self.benchmark
            payload["scale"] = self.scale
            payload["input_seed"] = self.input_seed
        if self.ir_text is not None:
            payload["ir_text"] = self.ir_text
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleSpec":
        return cls(
            benchmark=data.get("benchmark"),
            scale=str(data.get("scale", "default")),
            input_seed=int(data.get("input_seed", 0)),
            ir_text=data.get("ir_text"),
        )

    @classmethod
    def from_request(cls, data: dict) -> "ModuleSpec":
        """The spec of a service request, which must name exactly one
        of a benchmark and IR; raises ValueError otherwise."""
        spec = cls.from_dict(data)
        if spec.benchmark is None and spec.ir_text is None:
            raise ValueError("request names neither a benchmark nor IR")
        if spec.benchmark is not None and spec.ir_text is not None:
            raise ValueError("request names both a benchmark and IR")
        return spec


@dataclass(frozen=True)
class CampaignSettings:
    """Knobs of the campaign scheduler (pool size, stopping rule, tiers).

    Counts are a pure function of the module, the seed, the run budget
    and the stopping rule; every other knob here is wall-clock-only and
    deliberately excluded from the campaign cache key.
    """

    workers: int = 1
    #: Runs per shard; 0 = one contiguous shard per worker per round.
    chunk_size: int = 0
    #: Stop once the Wilson CI half-width on ``ci_outcome`` drops below
    #: this; None disables early stopping (all runs execute).
    ci_halfwidth: float | None = None
    ci_outcome: str = DEFAULT_CI_OUTCOME
    ci_z: float = Z_95
    #: Runs per early-stopping round; 0 = auto.
    round_size: int = 0
    #: Never stop before this many runs (guards tiny-sample intervals).
    min_runs: int = 100
    #: Per-shard pool timeout in seconds; on expiry the shard is retried
    #: serially.  None = wait indefinitely.
    round_timeout: float | None = None
    #: Checkpoint-and-fork: restore golden-prefix snapshots so each
    #: trial executes only its suffix.  Counts are invariant to this
    #: knob (it is deliberately *not* part of the campaign cache key);
    #: an injector that fails to capture or resume degrades back to
    #: cold full runs, mirroring the pool-failure policy.
    checkpoint: bool = True
    #: Snapshot stride in dynamic instructions; 0 = auto.
    checkpoint_stride: int = 0
    #: Interpreter tier ("codegen"/"batch"); None selects the resolved
    #: default.  Counts are invariant to the tier (the CI differential
    #: enforces bit-identity), so — like the checkpoint knobs — it is
    #: deliberately *not* part of the campaign cache key.
    interp_tier: str | None = None
    #: Lanes per lockstep group on the batch tier; <= 0 picks the
    #: tier's default.  Another wall-clock-only knob: counts are
    #: bit-identical at every lane count, so it too stays *out* of the
    #: campaign cache key.
    batch_lanes: int = 0

    def effective_round_size(self) -> int:
        """Round size the driver will use under early stopping (0 when
        no stopping rule applies).  Part of the campaign cache key: two
        configurations that could stop at different run prefixes must
        never share a cached result."""
        if self.ci_halfwidth is None:
            return 0
        if self.round_size > 0:
            return self.round_size
        return max(self.min_runs, 50 * max(1, self.workers))

    def lane_multiple(self) -> int:
        """Shard sizes are rounded up to this so no lockstep group
        straddles a shard boundary and runs as a fraction of its width."""
        if self.interp_tier == "batch" and self.batch_lanes > 1:
            return self.batch_lanes
        return 1


@dataclass(frozen=True)
class ShardSpec:
    """One self-contained unit of campaign work.

    ``run_shard(spec)`` is the single execution entrypoint: the local
    pool workers, the serial fallback and remote-style workers all call
    it, and because every run index owns its seed substream the returned
    counts depend only on ``(module, seed, [start, start+count))`` —
    never on where or when the shard executed.
    """

    module: ModuleSpec
    start: int
    count: int
    seed: int
    checkpoint: bool = True
    checkpoint_stride: int = 0
    interp_tier: str | None = None
    batch_lanes: int = 0

    @property
    def stop(self) -> int:
        return self.start + self.count

    def to_dict(self) -> dict:
        return {
            "module": self.module.to_dict(),
            "start": self.start,
            "count": self.count,
            "seed": self.seed,
            "checkpoint": self.checkpoint,
            "checkpoint_stride": self.checkpoint_stride,
            "interp_tier": self.interp_tier,
            "batch_lanes": self.batch_lanes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardSpec":
        return cls(
            module=ModuleSpec.from_dict(data["module"]),
            start=int(data["start"]),
            count=int(data["count"]),
            seed=int(data["seed"]),
            checkpoint=bool(data.get("checkpoint", True)),
            checkpoint_stride=int(data.get("checkpoint_stride", 0)),
            interp_tier=data.get("interp_tier"),
            batch_lanes=int(data.get("batch_lanes", 0)),
        )


@dataclass
class ShardResult:
    """Counts and throughput facts one executed shard ships back.

    JSON-safe via :meth:`to_dict`, so a completed shard doubles as a
    partial-campaign checkpoint in the shared result store: a killed
    worker's finished shards replay from disk instead of re-executing.
    """

    start: int
    count: int
    counts: dict[str, int] = field(default_factory=dict)
    cpu_seconds: float = 0.0
    perf: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "count": self.count,
            "counts": dict(self.counts),
            "cpu_seconds": self.cpu_seconds,
            "perf": dict(self.perf),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardResult":
        """Rebuild a shard; raises ValueError unless its counts are
        non-negative ints of known outcomes summing to ``count``, so a
        corrupt checkpoint is recomputed rather than merged."""
        count = int(data["count"])
        counts = dict(data["counts"])
        for outcome, n in counts.items():
            if outcome not in OUTCOMES:
                raise ValueError(f"unknown shard outcome {outcome!r}")
            if type(n) is not int or n < 0:
                raise ValueError(f"malformed shard count {outcome}={n!r}")
        if sum(counts.values()) != count:
            raise ValueError(
                f"shard counts sum to {sum(counts.values())}, not {count}"
            )
        perf = data.get("perf", {})
        if not isinstance(perf, dict):
            raise ValueError("malformed shard perf block")
        return cls(
            start=int(data["start"]),
            count=count,
            counts=counts,
            cpu_seconds=float(data["cpu_seconds"]),
            perf=perf,
        )
