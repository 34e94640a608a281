"""Shared scaffolding for the PVF/ePVF baseline models (Sec. VII-C)."""

from __future__ import annotations

import random

from ..core.config import TridentConfig, trident_config
from ..core.propagation import ForwardPropagator
from ..ir.module import Module
from ..profiling.profile import ProgramProfile


class VulnerabilityModel:
    """Base: per-instruction vulnerability + execution-weighted overall.

    Subclasses implement :meth:`instruction_vulnerability`; eligibility
    and weighting match TRIDENT and the fault injector so all approaches
    predict over the same fault space.
    """

    #: Query-store name of the per-instruction result (subclasses).
    QUERY: str | None = None

    def __init__(self, module: Module, profile: ProgramProfile,
                 config: TridentConfig | None = None, *,
                 shared_queries: bool = True):
        from ..query.engine import QueryEngine

        self.module = module
        self.profile = profile
        self.config = config or trident_config()
        self.queries = QueryEngine(module, profile, self.config,
                                   shared=shared_queries)
        self._compute_deps: set = set()
        self._cache: dict[int, float] = {}
        #: Optional persistence hook (repro.cache.bind_model_results).
        self.result_sink = None
        self._flushed_results = 0
        self.eligible: list[int] = []
        self._weights: list[int] = []
        for inst in module.instructions():
            if not inst.has_result or not inst.users:
                continue
            count = profile.count(inst.iid)
            if count == 0:
                continue
            self.eligible.append(inst.iid)
            self._weights.append(count)

    # -- to be provided by subclasses -----------------------------------

    def _compute(self, iid: int) -> float:
        raise NotImplementedError

    # -- shared API -------------------------------------------------------

    def _query_salt(self):
        """Extra store-key component for model inputs outside the config
        dataclass (ePVF's measured crash probability)."""
        return None

    def instruction_vulnerability(self, iid: int) -> float:
        cached = self._cache.get(iid)
        if cached is None:
            cached = self._query(iid)
            self._cache[iid] = cached
        return cached

    def _query(self, iid: int) -> float:
        """Per-instruction result via the persisted query store."""
        from ..query.engine import MISS

        engine = self.queries
        site = engine.index.to_local.get(iid)
        if self.QUERY is None or site is None:
            return self._compute(iid)
        home, local = site
        view = engine.view(self.QUERY, home, self._query_salt())
        stored = view.get(local)
        if stored is not MISS:
            return stored
        self._compute_deps = set()
        value = self._compute(iid)
        return view.put(
            local, value, engine.deps_for(self._compute_deps, exclude=home)
        )

    def warm_cache(self, results: dict[int, float]) -> int:
        """Adopt fingerprint-keyed results (see Trident.warm_cache)."""
        self._cache.update(results)
        self._flushed_results = len(self._cache)
        return len(results)

    def cached_results(self) -> dict[int, float]:
        return dict(self._cache)

    def _flush_results(self) -> None:
        if (self.result_sink is not None
                and len(self._cache) > self._flushed_results):
            self.result_sink(dict(self._cache))
            self._flushed_results = len(self._cache)
        self.queries.flush()

    def overall(self, samples: int = 3000, seed: int = 0) -> float:
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        if not self.eligible:
            return 0.0
        rng = random.Random(seed)
        picks = rng.choices(self.eligible, weights=self._weights, k=samples)
        result = sum(
            self.instruction_vulnerability(iid) for iid in picks
        ) / samples
        self._flush_results()
        return result

    def overall_exact(self) -> float:
        if not self.eligible:
            return 0.0
        total = sum(self._weights)
        result = sum(
            w * self.instruction_vulnerability(iid)
            for iid, w in zip(self.eligible, self._weights)
        ) / total
        self._flush_results()
        return result

    # -- helper shared by both baselines -----------------------------------

    def _union_of_terminals(self, propagator: ForwardPropagator,
                            iid: int, kinds=None) -> float:
        """Union of corruption probabilities over terminal events."""
        from ..query.engine import CALLGRAPH_DEP

        inst = self.module.instruction(iid)
        if not inst.has_result:
            return 0.0
        origin_count = self.profile.count(iid)
        result = propagator.propagate(inst)
        self._compute_deps |= result.functions
        if result.callgraph:
            self._compute_deps.add(CALLGRAPH_DEP)
        survive = 1.0
        for event in result.events:
            if kinds is not None and event.kind not in kinds:
                continue
            probability = event.probability
            if origin_count > 0:
                probability *= min(
                    1.0,
                    self.profile.count(event.instruction.iid) / origin_count,
                )
            survive *= 1.0 - min(1.0, probability)
        return 1.0 - survive
