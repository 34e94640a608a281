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
    #: Execution count per basic block (block object -> count).
    block_counts: dict = field(default_factory=dict)
    #: Peak memory footprint in bytes (globals + stack), for the crash model.
    footprint_bytes: int = 0
    #: Dynamic instructions at the end of the run taken over from the
    #: golden run instead of executed: a fault-injection trial that
    #: rejoined it.  Bookkeeping, not behaviour, so equality ignores it.
    golden_suffix: int = field(default=0, compare=False)

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
