"""Typed artifacts on top of the raw disk cache.

Five artifact kinds, all keyed (directly or indirectly) on module or
function content so a stale entry is unreachable by construction:

* ``profile``  — serialized :class:`ProgramProfile` plus the profiled
  program outputs (extends :mod:`repro.profiling.serialize`); key =
  fingerprint + profiler knobs.
* ``golden``   — the golden-run summary a :class:`FaultInjector` needs
  (outputs, per-instruction counts, dynamic count); key = fingerprint.
  Campaign workers load it instead of re-executing the fault-free run
  after re-materializing a :class:`ModuleSpec`.
* ``model_fn`` — one function's entries of a persisted model query
  (``model.sdc``, ``model.pvf``, ``model.epvf``): the only stored model
  results.  Key = query + the function's content and profile-slice
  input key + the query's config projection + model salt (see
  :func:`function_results_key`).
* ``campaign`` — merged FI campaign counts; key = fingerprint + every
  knob that can change the executed run set (runs, seed, stopping
  rule, and the target instruction of a per-instruction campaign).
  Serialization of the result itself lives on
  :class:`repro.fi.campaign.CampaignResult` to keep this package free
  of an fi dependency.
* ``shard``    — one completed shard's partial campaign counts, scoped
  under its campaign key (see :func:`shard_key`).

A kind directory this module does not name (left by an older store)
is inert: nothing reads it, and ``repro cache prune``/``clear`` remove
its entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..profiling.profile import ProgramProfile
from ..profiling.serialize import profile_from_dict, profile_to_dict
from .disk import ArtifactCache, get_cache
from .fingerprint import combine_key, module_fingerprint

PROFILE_KIND = "profile"
GOLDEN_KIND = "golden"
MODEL_FN_KIND = "model_fn"
CAMPAIGN_KIND = "campaign"
SHARD_KIND = "shard"


# ---------------------------------------------------------------------------
# Profiles


def profile_key(fingerprint: str, sample_cap: int = 32,
                seed: int = 2018) -> str:
    return combine_key("profile", fingerprint, sample_cap, seed)


def load_cached_profile(cache: ArtifactCache,
                        key: str) -> ProgramProfile | None:
    payload = cache.load(PROFILE_KIND, key)
    if payload is None:
        return None
    try:
        return profile_from_dict(payload["profile"])
    except (KeyError, TypeError, ValueError):
        return None


def store_cached_profile(cache: ArtifactCache, key: str,
                         profile: ProgramProfile,
                         outputs: list[str] | None = None) -> bool:
    payload = {"profile": profile_to_dict(profile)}
    if outputs is not None:
        payload["outputs"] = list(outputs)
    return cache.store(PROFILE_KIND, key, payload)


def cached_profile(
    module,
) -> tuple[ProgramProfile, list[str] | None]:
    """The module's profile from the store, or profiled and published
    on a miss.

    Returns the profile and, when this call ran the profiler, the
    program outputs it saw (None on a store hit), so a caller can check
    them against the golden run.
    """
    cache = get_cache()
    key = profile_key(module_fingerprint(module))
    profile = load_cached_profile(cache, key)
    if profile is not None:
        return profile, None
    from ..profiling.profiler import ProfilingInterpreter
    profile, outputs = ProfilingInterpreter(module).run()
    store_cached_profile(cache, key, profile, outputs)
    return profile, outputs


# ---------------------------------------------------------------------------
# Golden-run summaries


@dataclass
class GoldenSummary:
    """What a FaultInjector needs from the fault-free reference run.

    Duck-types the :class:`repro.interp.result.RunResult` surface the
    injector and its callers use (``outputs``, ``dynamic_count``,
    ``instruction_counts()``), so a cached summary substitutes for a
    real golden run.
    """

    outputs: list[str]
    counts: dict[int, int]
    dynamic_count: int
    footprint_bytes: int = 0

    def instruction_counts(self) -> dict[int, int]:
        return dict(self.counts)

    @classmethod
    def from_run(cls, result) -> "GoldenSummary":
        return cls(
            outputs=list(result.outputs),
            counts=result.instruction_counts(),
            dynamic_count=result.dynamic_count,
            footprint_bytes=result.footprint_bytes,
        )

    def to_dict(self) -> dict:
        return {
            "outputs": list(self.outputs),
            "counts": {str(k): v for k, v in self.counts.items()},
            "dynamic_count": self.dynamic_count,
            "footprint_bytes": self.footprint_bytes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GoldenSummary":
        return cls(
            outputs=list(data["outputs"]),
            counts={int(k): v for k, v in data["counts"].items()},
            dynamic_count=data["dynamic_count"],
            footprint_bytes=data.get("footprint_bytes", 0),
        )


def golden_key(fingerprint: str) -> str:
    return combine_key("golden", fingerprint)


def load_golden_summary(cache: ArtifactCache,
                        key: str) -> GoldenSummary | None:
    payload = cache.load(GOLDEN_KIND, key)
    if payload is None:
        return None
    try:
        return GoldenSummary.from_dict(payload)
    except (KeyError, TypeError, ValueError):
        return None


def store_golden_summary(cache: ArtifactCache, key: str,
                         summary: GoldenSummary) -> bool:
    return cache.store(GOLDEN_KIND, key, summary.to_dict())


# ---------------------------------------------------------------------------
# Per-function model-result envelopes (the query pipeline's disk layer)


def function_results_key(query: str, input_key: str,
                         config_projection: str, salt=None,
                         scope: str = "") -> str:
    """Key of one query's per-function result store.

    ``input_key`` is the function's combined (canonical-fingerprint,
    profile-slice-digest) content address, so warm CI runs reuse the
    *unchanged functions* of an edited module across commits.

    ``scope`` is the function *name* for interprocedural queries: two
    content-identical functions compute identical intra-function
    results, but their interprocedural walks route through different
    call sites, so those stores must not be shared between them.
    """
    return combine_key("model_fn", query, scope, input_key,
                       config_projection, salt)


def load_function_results(
    cache: ArtifactCache, key: str,
) -> dict[int, tuple[float, dict | None]] | None:
    """{local index -> (value, dependency key map or None)} or None.

    The dependency map names the *other* functions (and pseudo-inputs
    like the callgraph) an entry's value was derived from; the query
    engine revalidates it entry-by-entry, so one envelope can serve a
    module in which only some of those dependencies still hold.
    """
    payload = cache.load(MODEL_FN_KIND, key)
    if payload is None:
        return None
    try:
        out: dict[int, tuple[float, dict | None]] = {}
        for local, (value, deps) in payload["entries"].items():
            if deps is not None and not isinstance(deps, dict):
                raise TypeError("malformed dependency map")
            out[int(local)] = (float(value), deps)
        return out
    except (KeyError, TypeError, ValueError):
        return None


def store_function_results(
    cache: ArtifactCache, key: str,
    entries: dict[int, tuple[float, dict | None]],
) -> bool:
    payload = {
        "entries": {
            str(local): [value, deps] for local, (value, deps)
            in entries.items()
        }
    }
    return cache.store(MODEL_FN_KIND, key, payload)


# ---------------------------------------------------------------------------
# Campaign keys (result (de)serialization lives on CampaignResult)


def campaign_key(fingerprint: str, runs: int, seed: int, *,
                 ci_halfwidth: float | None = None,
                 min_runs: int = 100,
                 round_size: int = 0,
                 target: int | None = None) -> str:
    """Key over everything that can change the executed run set.

    Without a stopping rule the executed set is exactly [0, runs) for
    any worker count or chunking (the PR 1 seed protocol), so none of
    the parallelism knobs participate.  With early stopping the stop
    check happens on round boundaries, so the effective round size
    (which the driver derives from the worker count) must be part of
    the key — two configurations that could stop at different prefixes
    never share an entry.  A per-instruction campaign's ``target`` iid
    is appended; without one the key is the whole-program campaign's.
    """
    parts = ["campaign", fingerprint, runs, seed]
    if ci_halfwidth is not None:
        # "sdc" names the outcome the stopping rule watches; keys in
        # existing stores include it.
        parts += [ci_halfwidth, "sdc", min_runs, round_size]
    if target is not None:
        parts += ["target", target]
    return combine_key(*parts)


def shard_key(campaign: str, start: int, count: int) -> str:
    """Key of one completed shard's partial-campaign checkpoint.

    Scoped under the campaign key (which already covers the module
    fingerprint, seed, run budget and stopping rule) plus the shard's
    exact run range: a re-run that plans the same range, in any process
    that shares the store, replays the stored counts instead of
    re-injecting, so a killed worker's completed shards are never lost.
    The payload is the shard's :class:`repro.fi.campaign.CampaignResult`
    wire form.
    """
    return combine_key("shard", campaign, start, count)
