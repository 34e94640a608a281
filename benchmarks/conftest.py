"""Shared fixtures for the benchmark harness.

Each ``test_*`` file regenerates one table or figure of the paper.  The
default configuration covers all 11 benchmarks at "test" scale with
moderate FI sample counts so the whole harness completes in minutes;
set the environment variables below for a fuller (slower) run:

    REPRO_SCALE=small|default   benchmark input scale
    REPRO_FI_SAMPLES=3000       FI samples per program (paper: 3000)
    REPRO_PER_INST_RUNS=100     FI runs per instruction (paper: 100)
    REPRO_FI_WORKERS=4          worker processes for FI campaigns
    REPRO_FI_CI_HALFWIDTH=0.01  stop campaigns at this Wilson 95% CI
                                half-width on the SDC probability
    REPRO_FI_CHECKPOINT=0       disable checkpoint-and-fork FI trials
                                (default on; counts are identical)
    REPRO_FI_CHECKPOINT_STRIDE=500
                                dynamic instructions between golden
                                snapshots (0 = auto)
    REPRO_INTERP_TIER=batch     interpreter execution tier (codegen
                                or batch; default codegen — outcomes
                                are bit-identical on every tier)
    REPRO_BATCH_LANES=64        trials per lockstep group on the batch
                                tier (0 = tier default; a wall-clock
                                knob only — counts are identical for
                                any lane count)
    REPRO_CACHE_DIR=.repro-cache
                                artifact-cache root (CI restores this
                                across runs); unset = .repro-cache/

The REPRO_FI_* knobs, REPRO_INTERP_TIER and REPRO_BATCH_LANES reach
every artifact's campaigns, except that Table II's per-instruction
campaigns always run serially (one worker).  Campaign counts are
bit-identical for any REPRO_FI_WORKERS value; REPRO_FI_CI_HALFWIDTH
trades sample count for wall-clock, and a warm artifact cache replays
profiles/campaigns/model results bit-identically (every artifact but
fig6 and fig7, which time single FI runs).

Rendered reports are printed (visible with ``-s``) and written to
``benchmarks/results/``.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import BENCHMARK_NAMES
from repro.cache import configure_cache
from repro.core.env import env_choice, env_flag, env_float, env_int, env_str
from repro.harness import ExperimentConfig, Workspace
from repro.interp.codegen import TIERS

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _artifact_cache():
    """Honor $REPRO_CACHE_DIR explicitly (CI restores that directory
    between runs, so warm reruns replay cached artifacts)."""
    configure_cache(env_str("REPRO_CACHE_DIR"))


def harness_config() -> ExperimentConfig:
    return ExperimentConfig(
        scale=env_choice("REPRO_SCALE", "test",
                         ("test", "small", "default", "large")),
        fi_samples=env_int("REPRO_FI_SAMPLES", 400, minimum=1),
        model_samples=env_int("REPRO_FI_SAMPLES", 400, minimum=1),
        per_instruction_runs=env_int("REPRO_PER_INST_RUNS", 25, minimum=1),
        max_instructions=env_int("REPRO_MAX_INSTRUCTIONS", 60, minimum=1),
        protection_fi_samples=env_int("REPRO_PROTECTION_SAMPLES", 300,
                                      minimum=1),
        benchmarks=BENCHMARK_NAMES,
        fi_workers=env_int("REPRO_FI_WORKERS", 1, minimum=1),
        fi_ci_halfwidth=env_float("REPRO_FI_CI_HALFWIDTH", None, minimum=0.0),
        fi_checkpoint=env_flag("REPRO_FI_CHECKPOINT", True),
        fi_checkpoint_stride=env_int("REPRO_FI_CHECKPOINT_STRIDE", 0,
                                     minimum=0),
        interp_tier=env_choice("REPRO_INTERP_TIER", None, TIERS),
        batch_lanes=env_int("REPRO_BATCH_LANES", 0, minimum=0),
    )


@pytest.fixture(scope="session")
def workspace() -> Workspace:
    return Workspace(harness_config())


@pytest.fixture(scope="session")
def fig8_workspace() -> Workspace:
    """Fig. 8 runs 6 protected FI campaigns per program; keep it to a
    representative subset by default (REPRO_FIG8_ALL=1 for all 11)."""
    config = harness_config()
    if not env_flag("REPRO_FIG8_ALL", False):
        config = replace(
            config, benchmarks=("pathfinder", "hotspot", "nw", "bfs_parboil")
        )
    return Workspace(config)


def publish(name: str, rendered: str) -> None:
    """Print a report and persist it under benchmarks/results/."""
    print()
    print(rendered)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n")
