"""The two simpler comparison models of Sec. V-B.

Both reuse the TRIDENT machinery with sub-models disabled:

* ``fs+fc`` — control-flow divergence is modeled but an error that
  reaches any store is assumed to be an SDC (no memory tracking).  The
  paper shows this always over-predicts.
* ``fs`` — only static data dependencies; propagation stops at
  control-flow divergence, and a store hit is an SDC.  Over- or
  under-predicts depending on the program.
"""

from __future__ import annotations

from ..ir.module import Module
from ..profiling.profile import ProgramProfile
from .config import fs_fc_config, fs_only_config, trident_config
from .trident import Trident

MODEL_NAMES = ("trident", "fs+fc", "fs")

#: Everything create_model accepts (the three TRIDENT variants plus the
#: PVF/ePVF baselines of Fig. 9).
ALL_MODEL_NAMES = MODEL_NAMES + ("pvf", "epvf")


def create_model(name: str, module: Module, profile: ProgramProfile, *,
                 config=None,
                 measured_crash_probability: float | None = None,
                 shared: bool = True):
    """The one factory every harness and report builds models through.

    * ``config`` overrides the name-derived config (ablation studies).
    * ``shared`` (the default) lets the model's query engine share the
      process-wide per-function stores and read and write the persisted
      ones (``model.sdc``, ``model.pvf``, ``model.epvf``), the only
      stored model results.  ``shared=False`` gives it private stores,
      so cold-timing measurements (fig6) honestly recompute everything.
    * ``measured_crash_probability`` is forwarded to ePVF, which salts
      its store key with it.
    """
    lowered = name.lower()
    if lowered == "trident":
        return Trident(module, profile, config or trident_config(),
                       shared_queries=shared)
    if lowered in ("fs+fc", "fs_fc"):
        return Trident(module, profile, config or fs_fc_config(),
                       shared_queries=shared)
    if lowered in ("fs", "fs_only"):
        return Trident(module, profile, config or fs_only_config(),
                       shared_queries=shared)
    if lowered == "pvf":
        from ..baselines.pvf import PvfModel

        return PvfModel(module, profile, config, shared_queries=shared)
    if lowered == "epvf":
        from ..baselines.epvf import EpvfModel

        return EpvfModel(
            module, profile, config,
            measured_crash_probability=measured_crash_probability,
            shared_queries=shared,
        )
    raise ValueError(
        f"unknown model {name!r}; expected one of {ALL_MODEL_NAMES}"
    )


def build_all_models(module: Module,
                     profile: ProgramProfile) -> dict[str, Trident]:
    """All three models sharing one profile (as in the evaluation)."""
    return {name: create_model(name, module, profile)
            for name in MODEL_NAMES}
