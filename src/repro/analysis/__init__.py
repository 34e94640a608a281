"""Static analyses over the mini-IR: CFG, dominance, loops and control
dependence."""

from .cfg import (
    exit_blocks,
    predecessor_map,
    reachable_blocks,
    reverse_postorder,
)
from .controldep import ControlDep, ControlDependence
from .dominators import (
    VIRTUAL_EXIT,
    compute_dominators,
    compute_postdominators,
    dominates,
    immediate_dominators,
    postdominators,
)
from .loops import Loop, LoopInfo, find_back_edges, find_natural_loops

__all__ = [
    "ControlDep", "ControlDependence", "Loop", "LoopInfo", "VIRTUAL_EXIT",
    "compute_dominators", "compute_postdominators", "dominates",
    "exit_blocks", "find_back_edges", "find_natural_loops",
    "immediate_dominators", "postdominators", "predecessor_map",
    "reachable_blocks", "reverse_postorder",
]
