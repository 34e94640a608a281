"""Picklable specifications shared by every campaign entry point.

These are the nouns of the scheduler layer: what module to run
(:class:`ModuleSpec`), how to run it (:class:`CampaignSettings`) and
one shard of work (:class:`ShardSpec`).  All three are plain frozen
data that pickles across a ``multiprocessing`` pipe; a shard's outcome
is the :class:`~repro.fi.campaign.CampaignResult` of its seed range,
whose JSON wire form doubles as a partial-campaign checkpoint in the
shared result store.  That is what lets the CLI pool and the service
daemon execute the same campaign and merge bit-identical counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.module import Module

_REQUIRED = object()
_JSON_NAMES = {int: "integer", float: "number", bool: "boolean",
               str: "string"}


def json_field(data: dict, name: str, kind: type, default=_REQUIRED):
    """``data[name]`` of a service request, or ``default`` when absent.

    Refused with a TypeError unless its JSON type is ``kind``: ``int``
    is an integer (not a boolean), ``float`` any number but a boolean,
    and null passes only where the default is None.  Nothing is
    coerced, so ``"12"`` or ``2.5`` never runs as 12 or 2 trials.
    """
    value = data[name] if default is _REQUIRED else data.get(name, default)
    if value is None and default is None:
        return value
    accepted = (int, float) if kind is float else (kind,)
    if type(value) not in accepted:
        raise TypeError(
            f"{name} must be a JSON {_JSON_NAMES[kind]}, got {value!r}"
        )
    return value


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

    @classmethod
    def from_request(cls, data: dict) -> "ModuleSpec":
        """The spec of a service request, which must name exactly one
        of a benchmark and IR, as a string; raises ValueError
        otherwise, and TypeError on a scale or input seed of the wrong
        JSON type."""
        benchmark, ir_text = data.get("benchmark"), data.get("ir_text")
        for name, value in (("benchmark", benchmark), ("ir_text", ir_text)):
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string")
        if benchmark is None and ir_text is None:
            raise ValueError("request names neither a benchmark nor IR")
        if benchmark is not None and ir_text is not None:
            raise ValueError("request names both a benchmark and IR")
        return cls(
            benchmark=benchmark,
            scale=json_field(data, "scale", str, "default"),
            input_seed=json_field(data, "input_seed", int, 0),
            ir_text=ir_text,
        )


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
    #: Stop once the 95% Wilson CI half-width on the SDC probability
    #: drops below this; None disables early stopping (all runs execute).
    ci_halfwidth: float | None = None
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
    """One self-contained unit of campaign work: runs
    ``[start, start+count)`` of campaign ``seed`` under the campaign's
    own settings, injecting static instruction ``target`` in every run
    when one is named (a per-instruction campaign).

    ``run_shard(spec)`` is the single execution entrypoint: the local
    pool workers and the serial path both call it, and because every
    run index owns its seed substream the returned counts depend only
    on ``(module, seed, target, [start, start+count))`` — never on where
    or when the shard executed.
    """

    module: ModuleSpec
    start: int
    count: int
    seed: int
    settings: CampaignSettings = field(default_factory=CampaignSettings)
    target: int | None = None
