"""TRIDENT: the three-level error propagation model (Sec. IV).

This is the paper's Algorithm 1, generalized from a single sequence to
the full fan-out of def-use paths (terminal contributions are
union-combined, each capped at 1, per the algorithm's "maximum
propagation prob. is 1"):

1. fs propagates the fault forward over the def-use DAG to every
   terminal it reaches (:mod:`repro.core.propagation`);
2. if the terminal is a branch, fc yields the stores it corrupts and at
   what probabilities;
3. fm carries corrupted stores through memory to the program output.

The model predicts the SDC probability of each individual instruction
and of the whole program, without any fault injection.  Disabling fm
(or fc and fm) yields the two simpler comparison models of Sec. V-B;
the PVF and ePVF baselines of Fig. 9 (:mod:`repro.baselines`) are
subclasses with their own tuple rules and terminal accounting.
"""

from __future__ import annotations

import random

from ..ir.instructions import Branch, Output, Store
from ..ir.module import Module
from ..profiling.profile import ProgramProfile
from ..profiling.profiler import ProfilingInterpreter
from ..query.engine import CALLGRAPH_DEP, MISS, QueryEngine
from .config import TridentConfig, trident_config
from .fc import ControlFlowSubModel
from .fm import MemorySubModel
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

    Subclasses (the PVF/ePVF baselines) swap fs's tuple rules and query
    flavor, the persisted stores of the per-instruction results, how a
    terminal event contributes, and the store-key salt.
    """

    #: fs's tuple rules, and the query flavor its propagation memoizes
    #: under (other tuple rules give other propagations).
    TUPLES = TupleDeriver
    FS_QUERY = "model.fs"
    #: Persisted query stores of the per-instruction result and of the
    #: per-instruction crash prediction, fs's flavor.
    QUERY = "model.sdc"
    CRASH_QUERY = "model.crash"

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
        self.tuples = self.TUPLES(profile, self.config, self.queries)
        self.propagator = ForwardPropagator(module, self.tuples, self.config,
                                            self.queries, query=self.FS_QUERY)
        self.fc = ControlFlowSubModel(module, profile, self.config,
                                      self.queries)
        self.weigher = ExecutionWeigher(module, profile, self.queries)
        self.fm = MemorySubModel(
            module, profile, self.config, self.fc, self.propagator,
            self.weigher, engine=self.queries,
        )
        self._sdc_cache: dict[int, float] = {}
        self._crash_cache: dict[int, float] = {}
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
    # Per-instruction prediction
    # ------------------------------------------------------------------

    def instruction_sdc(self, iid: int) -> float:
        """P(SDC | fault activated in instruction ``iid``'s result)."""
        cached = self._sdc_cache.get(iid)
        if cached is None:
            cached = self._query_sdc(iid)
            self._sdc_cache[iid] = cached
        return cached

    def _query_salt(self):
        """Extra store-key component for a model input outside the config
        dataclass (ePVF's measured crash probability); None here."""
        return None

    def _query_sdc(self, iid: int) -> float:
        """instruction_sdc via the persisted ``QUERY`` store."""
        return self._stored(self.QUERY, self._query_salt(), iid,
                            self._compute_sdc)

    def _stored(self, query: str, salt, iid: int, compute) -> float:
        """``compute(iid)`` through the persisted per-function ``query``
        store.  ``compute`` adds the functions its value was derived
        from to ``self._scratch_deps``: an entry lives as long as they
        are unchanged."""
        self._scratch_deps: set = set()
        engine = self.queries
        site = engine.index.to_local.get(iid)
        if site is None:
            return compute(iid)
        home, local = site
        view = engine.view(query, home, salt)
        stored = view.get(local)
        if stored is not MISS:
            return stored
        value = compute(iid)
        return view.put(
            local, value, engine.deps_for(self._scratch_deps, exclude=home),
        )

    def _propagation(self, inst):
        """fs's propagation of a fault in ``inst``, whose functions (and
        the callgraph, if the walk read it) join ``_scratch_deps``."""
        result = self.propagator.propagate(inst)
        self._scratch_deps |= result.functions
        if result.callgraph:
            self._scratch_deps.add(CALLGRAPH_DEP)
        return result

    def _compute_sdc(self, iid: int) -> float:
        inst = self.module.instruction(iid)
        if not inst.has_result:
            return 0.0
        result = self._propagation(inst)
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
        picks = self._picks(samples, seed)
        if not picks:
            return 0.0
        result = sum(self.instruction_sdc(iid) for iid in picks) / samples
        self.queries.flush()
        return result

    def _picks(self, samples: int, seed: int) -> list[int]:
        """``samples`` eligible instructions drawn with replacement,
        weighted by execution count, from ``random.Random(seed)``.

        The draw is a function of the eligible set, the profile's counts
        and ``(samples, seed)``, so it is memoized on the profile, as
        :func:`~repro.query.keys.profile_slices` memoizes its digests:
        the models of one profile share it.  A model with private query
        stores (``shared_queries=False``, honest cold timings) draws its
        own."""
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        if not self.eligible:
            return []
        memo = {}
        if self.queries.shared:
            memo = getattr(self.profile, "_repro_picks_memo", None)
            if memo is None:
                memo = self.profile._repro_picks_memo = {}
        eligible, picks = memo.get((samples, seed), (None, None))
        if eligible != self.eligible:
            picks = random.Random(seed).choices(
                self.eligible, weights=self._weights, k=samples)
            memo[samples, seed] = self.eligible, picks
        return picks

    def overall_sdc_exact(self) -> float:
        """Exact execution-count-weighted average over all instructions."""
        if not self.eligible:
            return 0.0
        total_weight = sum(self._weights)
        acc = 0.0
        for iid, weight in zip(self.eligible, self._weights):
            acc += weight * self.instruction_sdc(iid)
        self.queries.flush()
        return acc / total_weight

    def sdc_map(self, iids=None) -> dict[int, float]:
        """Per-instruction SDC probabilities (default: all eligible)."""
        if iids is None:
            iids = self.eligible
        result = {iid: self.instruction_sdc(iid) for iid in iids}
        self.queries.flush()
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
        cached = self._crash_cache.get(iid)
        if cached is None:
            cached = self._stored(self.CRASH_QUERY, None, iid,
                                  self._compute_crash)
            self._crash_cache[iid] = cached
        return cached

    def _compute_crash(self, iid: int) -> float:
        inst = self.module.instruction(iid)
        if not inst.has_result:
            return 0.0
        return self._propagation(inst).crash_probability

    def overall_crash(self, samples: int = 3000, seed: int = 0) -> float:
        """Overall crash probability via sampled dynamic instances (the
        same picks as :meth:`overall_sdc`'s)."""
        picks = self._picks(samples, seed)
        if not picks:
            return 0.0
        result = sum(self.instruction_crash(iid) for iid in picks) / samples
        self.queries.flush()
        return result
