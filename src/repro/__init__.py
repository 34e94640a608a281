"""TRIDENT reproduction: modeling soft-error propagation in programs.

A self-contained Python reproduction of "Modeling Soft-Error Propagation
in Programs" (Li, Pattabiraman, Hari, Sullivan, Tsai — DSN 2018):

* :mod:`repro.ir` — a typed LLVM-like mini-IR with builder eDSL, textual
  printer/parser and verifier (the substrate the paper builds on LLVM);
* :mod:`repro.interp` — a compiled interpreter with a segmented memory
  model and built-in single-bit fault injection (the LLFI analogue);
* :mod:`repro.profiling` — the dynamic profiles TRIDENT consumes;
* :mod:`repro.core` — the three-level model (fs, fc, fm) and the two
  simpler comparison models;
* :mod:`repro.fi` — statistical and per-instruction FI campaigns;
* :mod:`repro.baselines` — PVF and ePVF;
* :mod:`repro.protection` — knapsack-guided selective duplication;
* :mod:`repro.bench` — the 11-benchmark suite of Table I;
* :mod:`repro.harness` — one experiment runner per table/figure;
* :mod:`repro.stats` — paired t-tests and confidence intervals.

Quickstart::

    from repro import Trident, FaultInjector, build_module

    module = build_module("pathfinder")
    model = Trident.build(module)           # profile once, no FI
    print(model.overall_sdc())              # program SDC probability
    print(model.instruction_sdc(42))        # per-instruction

    fi = FaultInjector(module)              # ground truth to compare
    print(fi.campaign(3000).sdc_probability)
"""

from .baselines import EpvfModel, PvfModel
from .bench import BENCHMARK_NAMES, all_benchmarks, build_module
from .core import (
    Trident,
    TridentConfig,
    build_all_models,
    fs_fc_config,
    fs_only_config,
    trident_config,
)
from .fi import CampaignResult, FaultInjector
from .harness import ExperimentConfig, Workspace, run_all, run_experiment
from .interp import ExecutionEngine, Injection, RunResult
from .ir import FunctionBuilder, Module, parse_module, print_module
from .opt import OptimizationReport, optimize
from .profiling import ProfilingInterpreter, ProgramProfile, load_profile, save_profile
from .protection import evaluate_protection, knapsack_select
from .report import ResilienceReport, generate_report

__version__ = "1.0.0"

__all__ = [
    "BENCHMARK_NAMES", "CampaignResult", "EpvfModel", "ExecutionEngine",
    "ExperimentConfig", "FaultInjector", "FunctionBuilder", "Injection",
    "Module", "OptimizationReport", "ProfilingInterpreter", "ProgramProfile", "PvfModel", "ResilienceReport",
    "RunResult", "Trident", "TridentConfig", "Workspace", "__version__",
    "all_benchmarks", "build_all_models", "build_module",
    "evaluate_protection", "fs_fc_config", "fs_only_config",
    "generate_report", "knapsack_select", "load_profile", "optimize", "parse_module", "print_module", "run_all", "save_profile",
    "run_experiment", "trident_config",
]
