"""Execution substrate: compiled interpreter, memory model, intrinsics."""

from .batch import DEFAULT_BATCH_LANES, HAVE_NUMPY, BatchRunner, GroupOutcome
from .checkpoint import GoldenCapture, Snapshot
from .codegen import TIER_BATCH, TIER_CODEGEN, resolve_tier
from .engine import ExecutionEngine, Injection, engine_build_count
from .errors import (
    ArithmeticTrap,
    DetectionTrap,
    HangFault,
    InterpreterBug,
    MemoryFault,
    RuntimeFault,
    StackOverflow,
)
from .intrinsics import INTRINSICS, call_intrinsic, is_intrinsic
from .memory import GLOBAL_BASE, STACK_BASE, GlobalLayout, MemoryState
from .result import CRASH, DETECTED, HANG, OK, RunResult

__all__ = [
    "ArithmeticTrap", "BatchRunner", "CRASH", "DEFAULT_BATCH_LANES",
    "DETECTED", "DetectionTrap", "ExecutionEngine", "GLOBAL_BASE",
    "GlobalLayout", "GoldenCapture", "GroupOutcome", "HANG", "HAVE_NUMPY",
    "HangFault", "INTRINSICS", "Injection", "InterpreterBug", "MemoryFault",
    "MemoryState", "OK", "RunResult", "RuntimeFault", "STACK_BASE",
    "Snapshot", "StackOverflow", "TIER_BATCH", "TIER_CODEGEN",
    "call_intrinsic", "engine_build_count", "is_intrinsic", "resolve_tier",
]
