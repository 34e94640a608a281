"""Configuration of the TRIDENT model and its ablations."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class TridentConfig:
    """Knobs for the three-level model.

    The default configuration is the full TRIDENT of the paper.  The two
    simpler comparison models of Sec. V-B are obtained with
    :func:`fs_fc_config` (fc on, fm off) and :func:`fs_only_config`
    (both off).  The two ``model_*`` flags enable extensions the paper
    lists as its own sources of inaccuracy (Sec. VII-A) — off by default
    to reproduce the paper's behaviour, available for ablation studies.
    """

    #: Enable the control-flow sub-model (fc).
    enable_control_flow: bool = True
    #: Enable the memory sub-model (fm).
    enable_memory: bool = True
    #: Operand samples per instruction used to derive empirical tuples.
    tuple_samples: int = 8
    #: Minimum probability worth tracking (smaller contributions dropped).
    epsilon: float = 1e-9
    #: Evaluate min/max cmp+select clusters jointly (DESIGN.md §5).
    #: Ablation: off composes cmp and select tuples independently.
    model_minmax_joint: bool = True
    #: Discount fc store-corruption by the measured silent-store
    #: fraction (lucky stores, Sec. VII-A).  Ablation flag.
    fc_silent_store_discount: bool = True
    #: Extension: model fdiv averaging-out of mantissa corruption.
    model_fdiv_masking: bool = False
    #: Extension: treat surviving store-address corruption as SDC.
    model_store_address_sdc: bool = False

    @property
    def name(self) -> str:
        if self.enable_control_flow and self.enable_memory:
            return "trident"
        if self.enable_control_flow:
            return "fs+fc"
        return "fs"


def trident_config(**overrides) -> TridentConfig:
    """The full three-level model (fs + fc + fm)."""
    return replace(TridentConfig(), **overrides)


def fs_fc_config(**overrides) -> TridentConfig:
    """Simpler model #1: control-flow but no memory tracking (Sec. V-B)."""
    return replace(TridentConfig(enable_memory=False), **overrides)


def fs_only_config(**overrides) -> TridentConfig:
    """Simpler model #2: static data dependencies only (Sec. V-B)."""
    return replace(
        TridentConfig(enable_control_flow=False, enable_memory=False),
        **overrides,
    )
