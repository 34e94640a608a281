"""The TRIDENT model: fs, fc, fm, and the Algorithm-1 orchestrator."""

from .config import (
    TridentConfig,
    fs_fc_config,
    fs_only_config,
    trident_config,
)
from .fc import ControlFlowSubModel
from .fm import MemorySubModel
from .masking import output_masking_factor
from .simple_models import (
    ALL_MODEL_NAMES,
    MODEL_NAMES,
    build_all_models,
    create_model,
)
from .trident import Trident
from .tuples import IDENTITY, PropTuple, TupleDeriver

__all__ = [
    "ALL_MODEL_NAMES", "ControlFlowSubModel", "IDENTITY", "MODEL_NAMES",
    "MemorySubModel", "PropTuple", "Trident", "TridentConfig",
    "TupleDeriver", "build_all_models", "create_model", "fs_fc_config",
    "fs_only_config", "output_masking_factor", "trident_config",
]
