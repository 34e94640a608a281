"""Cross-tier property fuzzing: every execution tier is one semantics.

:mod:`repro.ir.fuzz` grows random-but-valid IR modules (mixed integer
widths, phi nodes after mem2reg, loops, division/remainder ops that can
trap under injection, NaN-prone float arithmetic, loads and stores) and
this suite locks all tiers together over them: for each module the
golden run *and* a full fault-injection campaign must be bit-identical
across the reference engine (every block on the closure steps), the
reference engine with stride-1 checkpointing, the codegen tier, and the
batch tier with and without checkpointing.

A failing seed is shrunk to a minimal statement subset with
:func:`repro.ir.fuzz.shrink_case` and persisted under
``fuzz_regressions/`` as JSON, where ``test_fuzz_regressions`` replays
it on every subsequent run; the original failure message names both the
wide and the minimal case so either can be reproduced by hand.

Knobs: ``REPRO_FUZZ_MODULES`` (seeds per run, default 200) and
``REPRO_FUZZ_SEED`` (base seed, default 0 — CI can sweep fresh seeds
without code changes).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.fi.campaign import FaultInjector
from repro.interp.batch import HAVE_NUMPY
from repro.interp.engine import ReferenceEngine
from repro.interp.result import OK
from repro.ir.fuzz import FuzzCase, build_fuzz_module, shrink_case
from repro.ir.instructions import BinOp, Phi
from repro.ir.printer import print_module

REGRESSION_DIR = Path(__file__).parent / "fuzz_regressions"

N_MODULES = int(os.environ.get("REPRO_FUZZ_MODULES", "200"))
BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
CHUNK = 25

CAMPAIGN_RUNS = 24
CAMPAIGN_SEED = 11
#: Odd and smaller than the campaign, so groups are partial and lanes
#: straddle group boundaries — the shapes most likely to hide bugs.
BATCH_LANES = 7

#: (tier, checkpoint, checkpoint_stride) configurations under test;
#: the "reference" tier is codegen's on a :class:`ReferenceEngine`.
#: Stride 1 snapshots at every opportunity, maximizing resume coverage.
TIERS = [
    ("reference", False, 0),
    ("reference", True, 1),
    ("codegen", True, 0),
]
if HAVE_NUMPY:
    TIERS += [("batch", False, 0), ("batch", True, 0)]


def tier_fingerprint(module, tier, checkpoint, stride):
    """Everything observable about one tier's run of ``module``: golden
    outcome/outputs/trace shape plus full campaign outcome counts."""
    reference = tier == "reference"
    injector = FaultInjector(
        module, engine=ReferenceEngine(module) if reference else None,
        interp_tier="codegen" if reference else tier,
        checkpoint=checkpoint, checkpoint_stride=stride,
        batch_lanes=BATCH_LANES,
    )
    golden = injector.engine.golden()
    counts = injector.campaign(CAMPAIGN_RUNS, seed=CAMPAIGN_SEED).counts
    return (
        golden.outcome,
        tuple(golden.outputs),
        golden.dynamic_count,
        tuple(sorted((b.name, c) for b, c in golden.block_counts.items())),
        counts,
    )


def disagreement(case: FuzzCase):
    """The first (tier-config, reference, got) mismatch, or None.

    An exception anywhere (module build, golden run, campaign) also
    counts as a disagreement — the tiers cannot be compared — so the
    shrinker minimizes crashes with the same machinery as mismatches.
    """
    try:
        module = build_fuzz_module(case)
        reference = tier_fingerprint(module, *TIERS[0])
        for config in TIERS[1:]:
            got = tier_fingerprint(module, *config)
            if got != reference:
                return (config, reference, got)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return (("exception", type(exc).__name__, str(exc)), None, None)
    return None


def _persist_regression(case: FuzzCase) -> Path:
    REGRESSION_DIR.mkdir(exist_ok=True)
    path = REGRESSION_DIR / f"seed_{case.seed}.json"
    path.write_text(json.dumps(case.to_dict(), indent=2) + "\n")
    return path


def _seed_chunks():
    seeds = range(BASE_SEED, BASE_SEED + N_MODULES)
    return [seeds[i:i + CHUNK] for i in range(0, len(seeds), CHUNK)]


@pytest.mark.parametrize(
    "seeds", _seed_chunks(), ids=lambda r: f"seeds{r.start}to{r.stop - 1}"
)
def test_fuzz_tiers_agree(seeds):
    """The property: all tiers produce identical fingerprints for every
    generated module.  Failures shrink and persist before reporting."""
    for seed in seeds:
        case = FuzzCase(seed)
        found = disagreement(case)
        if found is None:
            continue
        minimal = shrink_case(case, lambda c: disagreement(c) is not None)
        path = _persist_regression(minimal)
        config, reference, got = disagreement(minimal) or found
        pytest.fail(
            f"tier disagreement at seed {seed}; minimal case "
            f"{minimal.to_dict()} persisted to {path}\n"
            f"config: {config}\nreference: {reference}\ngot: {got}"
        )


def test_fuzz_regressions():
    """Replay every previously-shrunk failing case (empty dir = no-op)."""
    paths = sorted(REGRESSION_DIR.glob("*.json")) \
        if REGRESSION_DIR.is_dir() else []
    failures = []
    for path in paths:
        case = FuzzCase.from_dict(json.loads(path.read_text()))
        found = disagreement(case)
        if found is not None:
            failures.append((path.name, found[0]))
    assert not failures, f"regression cases disagree again: {failures}"


def test_generator_determinism():
    """Same case, same module — byte-identical IR both fresh and with a
    statement subset, so persisted regressions replay exactly."""
    for case in (FuzzCase(5), FuzzCase(5, enabled=(0, 2, 3))):
        first = print_module(build_fuzz_module(case))
        second = print_module(build_fuzz_module(case))
        assert first == second


def test_generator_coverage():
    """The first 40 seeds must between them exercise the features the
    suite exists to cross-check: phi nodes (mem2reg actually ran),
    loops, integer division, float arithmetic — and every golden run
    must be fault-free (traps are reachable only under injection)."""
    saw_phi = saw_div = saw_float = saw_loop = 0
    for seed in range(40):
        module = build_fuzz_module(FuzzCase(seed))
        ops = [i for i in module.instructions() if isinstance(i, BinOp)]
        saw_phi += any(isinstance(i, Phi) for i in module.instructions())
        saw_div += any(
            i.op in ("sdiv", "udiv", "srem", "urem") for i in ops
        )
        saw_float += any(i.op.startswith("f") for i in ops)
        saw_loop += any(
            len(f.blocks) > 2 for f in module.functions.values()
        )
        golden = FaultInjector(module, checkpoint=False).engine.golden()
        assert golden.outcome == OK, f"seed {seed} golden run faulted"
    assert saw_phi >= 10
    assert saw_div >= 10
    assert saw_float >= 20
    assert saw_loop >= 20


def test_shrinker_minimizes():
    """Shrinking against a synthetic predicate ("contains a division")
    lands on a small enabled set that still satisfies it, and every
    intermediate candidate the shrinker tried was buildable."""
    def has_div(case: FuzzCase) -> bool:
        module = build_fuzz_module(case)  # raises if a subset is invalid
        return any(
            isinstance(i, BinOp)
            and i.op in ("sdiv", "udiv", "srem", "urem")
            for i in module.instructions()
        )

    for seed in range(30):
        case = FuzzCase(seed)
        if not has_div(case):
            continue
        minimal = shrink_case(case, has_div)
        assert has_div(minimal)
        assert minimal.enabled is not None
        assert len(minimal.enabled) <= 2
        break
    else:  # pragma: no cover - generator emits divisions frequently
        pytest.fail("no seed in range(30) produced a division")
