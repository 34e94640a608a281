"""TRIDENT: the three-level error propagation model (Sec. IV).

This is the paper's Algorithm 1, generalized from a single sequence to
the full fan-out of def-use paths (contributions are summed and capped
at 1, per the algorithm's "maximum propagation prob. is 1"):

1. fs traces the fault along each static data-dependent instruction
   sequence to its terminal;
2. if the terminal is a branch, fc yields the stores it corrupts and at
   what probabilities;
3. fm carries corrupted stores through memory to the program output.

The model predicts the SDC probability of each individual instruction
and of the whole program, without any fault injection.  Disabling fm
(or fc and fm) yields the two simpler comparison models of Sec. V-B.
"""

from __future__ import annotations

import random
import time

from ..ir.instructions import Branch, Output, Store
from ..ir.module import Module
from ..profiling.profile import ProgramProfile
from ..profiling.profiler import ProfilingInterpreter
from ..query.engine import CALLGRAPH_DEP, MISS, QueryEngine
from .config import TridentConfig, trident_config
from .fc import ControlFlowSubModel
from .fm import MemorySubModel
from .fs import StaticSubModel
from .masking import output_masking_factor
from .propagation import (
    EV_BRANCH,
    EV_OUTPUT,
    EV_STORE,
    EV_STORE_ADDR,
    ForwardPropagator,
)
from .tuples import TupleDeriver
from .weighting import ExecutionWeigher


class Trident:
    """The model: built from a module and one profiled execution.

    All analyses run through a :class:`~repro.query.QueryEngine`.  With
    ``shared_queries=True`` (default) the engine memoizes per-function
    results in process-wide content-addressed stores — a model over a
    transformed module recomputes only the mutated functions' queries.
    ``shared_queries=False`` isolates the engine (honest cold-build
    timings, e.g. the fig6 inference-cost measurements).
    """

    def __init__(self, module: Module, profile: ProgramProfile,
                 config: TridentConfig | None = None, *,
                 shared_queries: bool = True):
        if not module.is_finalized:
            raise ValueError("finalize the module before modeling")
        self.module = module
        self.profile = profile
        self.config = config or trident_config()
        self.queries = QueryEngine(module, profile, self.config,
                                   shared=shared_queries)
        self.tuples = TupleDeriver(profile, self.config, self.queries)
        self.propagator = ForwardPropagator(module, self.tuples, self.config,
                                            self.queries)
        self.fs = StaticSubModel(self.tuples)
        self.fc = ControlFlowSubModel(module, profile, self.config,
                                      self.queries)
        self.weigher = ExecutionWeigher(module, profile, self.queries)
        self.fm = MemorySubModel(
            module, profile, self.config, self.fc, self.propagator,
            self.weigher, engine=self.queries,
        )
        self._sdc_cache: dict[int, float] = {}
        #: Optional persistence hook (see repro.cache.bind_model_results):
        #: called with the full per-instruction result map when a bulk
        #: prediction finishes and new results were computed.
        self.result_sink = None
        self._flushed_results = 0
        #: Cumulative wall-clock seconds spent in inference.
        self.inference_seconds = 0.0
        # Injection-eligible instructions (same definition as the fault
        # injector: executed, produces a result, result is used).
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

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, module: Module, config: TridentConfig | None = None,
              sample_cap: int = 32, seed: int = 2018) -> "Trident":
        """Profile the program once and build the model on top."""
        profile, _outputs = ProfilingInterpreter(
            module, sample_cap=sample_cap, seed=seed
        ).run()
        return cls(module, profile, config)

    # ------------------------------------------------------------------
    # Result-cache plumbing (content-addressed warm starts)
    # ------------------------------------------------------------------

    def warm_cache(self, results: dict[int, float]) -> int:
        """Adopt previously computed per-instruction SDC results.

        Only callers that key the mapping on the module fingerprint,
        the model config and the profile digest (repro.cache) may warm
        a model — under those keys the cached values are bit-identical
        to what :meth:`instruction_sdc` would compute.
        """
        self._sdc_cache.update(results)
        self._flushed_results = len(self._sdc_cache)
        return len(results)

    def cached_results(self) -> dict[int, float]:
        """Snapshot of every per-instruction result computed so far."""
        return dict(self._sdc_cache)

    def _flush_results(self) -> None:
        if (self.result_sink is not None
                and len(self._sdc_cache) > self._flushed_results):
            self.result_sink(dict(self._sdc_cache))
            self._flushed_results = len(self._sdc_cache)
        self.queries.flush()

    # ------------------------------------------------------------------
    # Per-instruction prediction
    # ------------------------------------------------------------------

    def instruction_sdc(self, iid: int) -> float:
        """P(SDC | fault activated in instruction ``iid``'s result)."""
        cached = self._sdc_cache.get(iid)
        if cached is not None:
            return cached
        started = time.perf_counter()
        probability = self._query_sdc(iid)
        self.inference_seconds += time.perf_counter() - started
        self._sdc_cache[iid] = probability
        return probability

    def _query_sdc(self, iid: int) -> float:
        """instruction_sdc via the persisted ``model.sdc`` query store."""
        engine = self.queries
        site = engine.index.to_local.get(iid)
        if site is None:
            return self._compute_sdc(iid)
        home, local = site
        view = engine.view("model.sdc", home)
        stored = view.get(local)
        if stored is not MISS:
            return stored
        probability = self._compute_sdc(iid)
        return view.put(
            local, probability,
            engine.deps_for(self._scratch_deps, exclude=home),
        )

    def _compute_sdc(self, iid: int) -> float:
        inst = self.module.instruction(iid)
        self._scratch_deps: set = set()
        if not inst.has_result:
            return 0.0
        result = self.propagator.propagate(inst)
        self._scratch_deps |= result.functions
        if result.callgraph:
            self._scratch_deps.add(CALLGRAPH_DEP)
        survive = 1.0  # union-combine the terminal events
        for event in result.events:
            contribution = self._event_contribution(inst, event)
            survive *= 1.0 - min(1.0, contribution)
        return 1.0 - survive

    def _event_contribution(self, origin, event) -> float:
        terminal = event.instruction
        alive = event.probability
        # Divergence weighting: the terminal may execute less often than
        # the faulty instruction (conditional paths).  Post-dominating
        # terminals are always reached (see ExecutionWeigher).
        alive *= self.weigher.weight(origin, terminal)
        if alive <= self.config.epsilon:
            return 0.0

        if event.kind == EV_OUTPUT:
            assert isinstance(terminal, Output)
            return alive * output_masking_factor(terminal)
        if event.kind == EV_STORE:
            assert isinstance(terminal, Store)
            if self.config.enable_memory:
                probability = alive * self.fm.propagate_store(terminal)
                self._scratch_deps |= self.fm.result_deps(terminal.iid)
                return probability
            # Simpler models: an error reaching a store is an SDC.
            return alive
        if event.kind == EV_BRANCH:
            assert isinstance(terminal, Branch)
            if not self.config.enable_control_flow:
                return 0.0  # fs-only: propagation stops at divergence
            contribution = 0.0
            for store, pc in self.fc.corrupted_stores(terminal):
                if self.config.enable_memory:
                    contribution += pc * self.fm.propagate_store(store)
                    self._scratch_deps |= self.fm.result_deps(store.iid)
                else:
                    contribution += pc
            return alive * min(1.0, contribution)
        if event.kind == EV_STORE_ADDR:
            if self.config.model_store_address_sdc:
                crash = self.profile.crash_probability(terminal.iid)
                return alive * (1.0 - crash)
            return 0.0
        # ret / detect
        return 0.0

    # ------------------------------------------------------------------
    # Whole-program prediction
    # ------------------------------------------------------------------

    def overall_sdc(self, samples: int = 3000, seed: int = 0) -> float:
        """Overall SDC probability via sampled dynamic instances.

        Mirrors the paper's methodology: N dynamic instruction instances
        are sampled (weighted by execution count); the per-instruction
        predictions of the sampled static instructions are averaged.
        """
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        if not self.eligible:
            return 0.0
        rng = random.Random(seed)
        picks = rng.choices(self.eligible, weights=self._weights, k=samples)
        result = sum(self.instruction_sdc(iid) for iid in picks) / samples
        self._flush_results()
        return result

    def overall_sdc_exact(self) -> float:
        """Exact execution-count-weighted average over all instructions."""
        if not self.eligible:
            return 0.0
        total_weight = sum(self._weights)
        acc = 0.0
        for iid, weight in zip(self.eligible, self._weights):
            acc += weight * self.instruction_sdc(iid)
        self._flush_results()
        return acc / total_weight

    def sdc_map(self, iids=None) -> dict[int, float]:
        """Per-instruction SDC probabilities (default: all eligible)."""
        if iids is None:
            iids = self.eligible
        result = {iid: self.instruction_sdc(iid) for iid in iids}
        self._flush_results()
        return result

    # ------------------------------------------------------------------
    # Crash prediction (extension beyond the paper)
    # ------------------------------------------------------------------

    def instruction_crash(self, iid: int) -> float:
        """P(crash | fault activated in instruction ``iid``'s result).

        An extension the paper leaves implicit: the same propagation
        tuples that discount SDC mass by crashes along the data flow can
        report that crash mass directly (out-of-bounds addresses from
        corrupted pointers/indices, divisors flipped to zero).  It only
        covers crashes on the *register* data flow — crashes of
        memory-carried corruption are not chased through fm — so it is a
        lower bound; FI validation shows it ranks instructions well.
        """
        inst = self.module.instruction(iid)
        if not inst.has_result:
            return 0.0
        return self.propagator.propagate(inst).crash_probability

    def overall_crash(self, samples: int = 3000, seed: int = 0) -> float:
        """Overall crash probability via sampled dynamic instances."""
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        if not self.eligible:
            return 0.0
        rng = random.Random(seed)
        picks = rng.choices(self.eligible, weights=self._weights, k=samples)
        return sum(self.instruction_crash(iid) for iid in picks) / samples

    # ------------------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        """Profiling (fixed) + inference (incremental) cost, Fig. 6."""
        return self.profile.profiling_seconds + self.inference_seconds
