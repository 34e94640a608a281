"""Run results produced by the execution engine."""

from __future__ import annotations

from dataclasses import dataclass, field

#: Raw outcome of one execution (before comparing outputs with a golden run).
OK = "ok"
CRASH = "crash"
HANG = "hang"
DETECTED = "detected"


@dataclass
class RunResult:
    """Everything observed during one program execution."""

    outcome: str
    outputs: list[str] = field(default_factory=list)
    dynamic_count: int = 0
    crash_reason: str = ""
    #: True when an armed injection actually flipped a bit.
    activated: bool = False
    #: Execution count per basic block (block object -> count), built
    #: from ``dense_counts`` when first read (:meth:`__getattr__`):
    #: equality reads it, and no campaign reads a trial's.
    block_counts: dict = field(init=False)
    #: Peak memory footprint in bytes (globals + stack), for the crash model.
    footprint_bytes: int = 0
    #: Dynamic instructions taken over from the golden run instead of
    #: executed: at the start, by a trial resumed from a snapshot, and
    #: at the end, by a fault-injection trial that rejoined it.
    #: Bookkeeping, not behaviour, so equality ignores them.
    golden_prefix: int = field(default=0, compare=False)
    golden_suffix: int = field(default=0, compare=False)
    #: The run's dense per-block counters, and the engine's blocks in
    #: counter order.
    dense_counts: list = field(default_factory=list, compare=False,
                               repr=False)
    block_order: list = field(default_factory=list, compare=False,
                              repr=False)

    def __getattr__(self, name: str):
        """Build ``block_counts`` on its first read (only attributes not
        set yet come here)."""
        if name != "block_counts":
            raise AttributeError(name)
        order = self.block_order
        self.block_counts = counts = {
            order[index]: count
            for index, count in enumerate(self.dense_counts) if count
        }
        return counts

    @property
    def completed(self) -> bool:
        return self.outcome == OK

    def instruction_counts(self) -> dict[int, int]:
        """Execution count per static instruction id, from block counts."""
        counts: dict[int, int] = {}
        for block, count in self.block_counts.items():
            for inst in block.instructions:
                counts[inst.iid] = counts.get(inst.iid, 0) + count
        return counts

    def output_text(self) -> str:
        return "\n".join(self.outputs)

    def same_output(self, other: "RunResult") -> bool:
        return self.outputs == other.outputs
