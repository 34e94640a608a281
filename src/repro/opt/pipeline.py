"""Optimization pipeline: compose the passes at named levels.

``optimize(module, level)`` works on a clone (textual round-trip), so
the input module — possibly shared with other experiments — is never
mutated.  Levels:

* ``0`` — identity (the eDSL's clang -O0 style alloca/load/store form)
* ``1`` — constant folding + CFG simplification + DCE
* ``2`` — level 1, then mem2reg (SSA registers + phis), then cleanup

Level 2 approximates the -O2 register form the paper evaluates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module
from .constfold import fold_constants
from .dce import eliminate_dead_code
from .mem2reg import promote_to_registers
from .simplifycfg import simplify_cfg


@dataclass
class OptimizationReport:
    """What the pipeline did, per pass."""

    level: int
    constants_folded: int = 0
    cfg_rewrites: int = 0
    slots_promoted: int = 0
    instructions_removed: int = 0
    before_instructions: int = 0
    after_instructions: int = 0
    notes: list[str] = field(default_factory=list)
    #: Functions at least one pass actually changed; everything else
    #: keeps its fingerprint, so its queries survive the transform.
    touched_functions: set[str] = field(default_factory=set)


#: Each pass with the report counter it feeds.
_PASSES = (
    (fold_constants, "constants_folded"),
    (simplify_cfg, "cfg_rewrites"),
    (eliminate_dead_code, "instructions_removed"),
)
_LEVEL2_PASSES = ((promote_to_registers, "slots_promoted"),) + _PASSES


def _run_passes(clone: Module, report: OptimizationReport, passes) -> None:
    """One pass sequence over every function, recording what changed."""
    for pass_fn, counter in passes:
        for function in clone.functions.values():
            changed = pass_fn(function)
            if changed:
                report.touched_functions.add(function.name)
            setattr(report, counter, getattr(report, counter) + changed)


def optimize(module: Module, level: int = 2) -> tuple[Module, OptimizationReport]:
    """Optimize a clone of ``module`` at the given level."""
    if level not in (0, 1, 2):
        raise ValueError(f"unknown optimization level {level}")
    report = OptimizationReport(level)
    report.before_instructions = module.num_instructions
    clone = parse_module(print_module(module))
    if level == 0:
        report.after_instructions = clone.num_instructions
        return clone, report

    _run_passes(clone, report, _PASSES)
    if level >= 2:
        _run_passes(clone, report, _LEVEL2_PASSES)
    clone.finalize()
    report.after_instructions = clone.num_instructions
    return clone, report
