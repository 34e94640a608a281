"""Fault injection campaigns (the paper's FI baseline, LLFI-style).

One campaign = N independent runs; each run injects a single bit flip
into the destination register of one dynamic instruction instance,
sampled uniformly over all executed instances whose result is used
(guaranteeing activation, Sec. V-A2), then executes to completion and
classifies the outcome against a golden run.
"""

from __future__ import annotations

import math
import random
import time
import weakref
from bisect import bisect_right
from dataclasses import MISSING, dataclass, field, fields
from operator import add

from ..interp.codegen import TIER_BATCH, resolve_tier
from ..interp.engine import ExecutionEngine, Injection
from ..interp.result import CRASH, DETECTED, HANG
from ..ir.module import Module
from .seeds import rng_for, seed_for

#: Outcome labels used throughout the evaluation.
SDC = "sdc"
BENIGN = "benign"
CRASHED = "crash"
HUNG = "hang"
CAUGHT = "detected"

OUTCOMES = (SDC, CRASHED, HUNG, BENIGN, CAUGHT)


def _add_counts(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    merged = dict(a)
    for outcome, n in b.items():
        merged[outcome] = merged.get(outcome, 0) + n
    return merged


def _either(a, b):
    """OR for flags; the first non-empty value for the tier name."""
    return a or b


def _stat(default=None, merge=None, *, factory=None, stored=True):
    """A :class:`CampaignResult` field whose metadata says how
    :meth:`CampaignResult.absorb` combines two results' values
    (``merge``; None for fields a campaign driver sets after merging)
    and whether the wire form carries it (``stored``).  Plain fields
    are neither merged nor stored."""
    metadata = {"merge": merge, "stored": stored}
    if factory is not None:
        return field(default_factory=factory, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class CampaignResult:
    """Aggregated outcome counts of one FI campaign, or of one seed
    range of it (a span or shard, see :mod:`repro.sched`).

    Each field's declaration is the one statement of how results
    combine and travel: :meth:`absorb` (and :meth:`merge`, built on it)
    merges the fields declared with a ``merge`` rule, :meth:`to_dict`
    writes the ``stored`` ones, and :meth:`from_dict` reads them back.
    The remaining fields describe the campaign that produced the result
    (whether the confidence-interval stopping rule fired, how many
    rounds ran, how many workers executed it) and are set by the
    campaign driver after merging, not by ``merge`` itself.

    Invariant: ``total`` equals the runs ``completed_ranges`` covers.
    """

    counts: dict[str, int] = _stat(
        merge=_add_counts, factory=lambda: {o: 0 for o in OUTCOMES}
    )
    #: End-to-end elapsed time observed by the campaign driver.
    wall_seconds: float = _stat(0.0, add, stored=False)
    #: Summed per-run execution time across all workers (== wall_seconds
    #: for a serial campaign).
    cpu_seconds: float = _stat(0.0, add)
    runs_requested: int = _stat(0)
    stopped_early: bool = _stat(False)
    rounds: int = _stat(0)
    workers: int = 1
    #: True when a parallel campaign lost its worker pool and fell back
    #: to in-process serial execution (no counts are ever lost).
    degraded: bool = False
    #: True when the result was served from the artifact cache instead
    #: of being executed (counts are bit-identical either way).
    from_cache: bool = False
    #: Interpreter throughput: dynamic instructions actually executed
    #: (trials + golden capture passes) and instructions *not* executed
    #: because trials forked from golden-prefix snapshots or took over
    #: the golden suffix.
    dynamic_instructions: int = _stat(0, add)
    skipped_instructions: int = _stat(0, add)
    #: Trials that rejoined the golden run and took over its suffix
    #: instead of executing it.
    converged_trials: int = _stat(0, add)
    #: Estimated bytes held by the snapshot sets built for this result
    #: (counted once per capture pass, summed across workers).
    snapshot_bytes: int = _stat(0, add)
    #: True when at least part of the campaign ran in checkpoint mode.
    checkpointed: bool = _stat(False, _either)
    #: True when a checkpoint path failed and trials fell back to cold
    #: full runs (counts are bit-identical either way).
    checkpoint_degraded: bool = _stat(False, _either)
    #: Interpreter tier that executed the campaign ("codegen" or
    #: "batch"); empty for results that never ran (e.g. bare merges).
    interp_tier: str = _stat("", _either)
    #: Always 0: generated code has no fallback.  Kept because the
    #: repository benchmark's tracer (``perfbench/tracer.py``) reads it.
    codegen_fallbacks: int = 0
    #: Batch tier statistics: the lane count groups ran with (a gauge),
    #: lanes that left lockstep and re-ran on the scalar tier, and
    #: whole groups that failed and re-ran their trials scalar (counts
    #: are bit-identical either way).
    batch_lanes: int = _stat(0, max)
    batch_divergences: int = _stat(0, add)
    batch_fallbacks: int = _stat(0, add)
    #: Reconvergence observability: divergent branches whose sides were
    #: re-merged in lockstep (``batch_reconverged``), lanes that left
    #: lockstep and re-ran as scalar trials anyway (``batch_drains``),
    #: and the dynamic instructions those re-runs executed
    #: (``drain_instructions`` ⊆ ``dynamic_instructions``).
    batch_reconverged: int = _stat(0, add)
    batch_drains: int = _stat(0, add)
    drain_instructions: int = _stat(0, add)
    #: Seed ranges (start, count) whose counts this result includes:
    #: ``run_span`` sets its own, merging concatenates them and the
    #: campaign driver coalesces them, so an interrupted campaign can
    #: report exactly which runs completed (see ``repro.sched.executor``).
    completed_ranges: list = _stat(merge=add, factory=list)
    #: True when the campaign was cut short (KeyboardInterrupt) and the
    #: counts cover only ``completed_ranges``; never cached.
    interrupted: bool = False
    #: Shards replayed from partial-campaign checkpoints in the shared
    #: result store instead of being re-executed.
    shards_resumed: int = 0

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def instructions_per_second(self) -> float:
        """Executed dynamic instructions per summed CPU second."""
        if self.cpu_seconds <= 0.0:
            return 0.0
        return self.dynamic_instructions / self.cpu_seconds

    def probability(self, outcome: str) -> float:
        if self.total == 0:
            return 0.0
        return self.counts[outcome] / self.total

    @property
    def drain_fraction(self) -> float:
        """Share of executed dynamic instructions spent re-running lanes
        that left lockstep — the batch tier's residual divergence
        cost."""
        if self.dynamic_instructions <= 0:
            return 0.0
        return self.drain_instructions / self.dynamic_instructions

    @property
    def sdc_probability(self) -> float:
        return self.probability(SDC)

    @property
    def crash_probability(self) -> float:
        return self.probability(CRASHED)

    @property
    def benign_probability(self) -> float:
        return self.probability(BENIGN)

    @property
    def detected_probability(self) -> float:
        return self.probability(CAUGHT)

    def margin_of_error(self, outcome: str = SDC,
                        confidence_z: float = 1.96) -> float:
        """Half-width of the binomial confidence interval (default 95%)."""
        n = self.total
        if n == 0:
            return 0.0
        p = self.probability(outcome)
        return confidence_z * math.sqrt(p * (1.0 - p) / n)

    def absorb(self, other: "CampaignResult") -> None:
        """Merge ``other`` into this result in place, each field by the
        ``merge`` rule its declaration names; fields without one (those
        a campaign driver sets) keep their values."""
        for name, merge in _MERGED:
            setattr(self, name,
                    merge(getattr(self, name), getattr(other, name)))

    def merge(self, other: "CampaignResult") -> "CampaignResult":
        """A new result merging both, by :meth:`absorb`."""
        merged = CampaignResult()
        merged.absorb(self)
        merged.absorb(other)
        return merged

    # -- wire form (result store, shard checkpoints, job results) --------

    def to_dict(self) -> dict:
        """JSON-safe form of the stored fields (see repro.cache)."""
        payload = {f.name: getattr(self, f.name) for f in _STORED}
        payload["counts"] = dict(self.counts)
        payload["completed_ranges"] = [list(r) for r in self.completed_ranges]
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignResult":
        """Rebuild a stored result; marks it ``from_cache``.

        Raises ValueError unless the counts are non-negative ints of
        known outcomes that sum to the runs ``completed_ranges`` covers,
        so a corrupt entry is recomputed rather than served or merged.
        Statistics an older entry lacks load as their defaults;
        wall-clock and worker metadata describe the run that *produced*
        the counts, not the read, so they keep the trivial values of a
        zero-cost replay.
        """
        if not isinstance(data, dict) or "completed_ranges" not in data:
            raise ValueError("not a campaign payload with completed_ranges")
        counts = dict(data["counts"])
        for outcome, n in counts.items():
            if outcome not in OUTCOMES:
                raise ValueError(f"unknown campaign outcome {outcome!r}")
            if type(n) is not int or n < 0:
                raise ValueError(f"malformed campaign count {outcome}={n!r}")
        ranges = [(int(start), int(count))
                  for start, count in data["completed_ranges"]]
        total = sum(counts.values())
        covered = sum(count for _start, count in ranges)
        if total != covered:
            raise ValueError(f"campaign counts sum to {total}, not {covered}")
        result = cls(counts={o: counts.get(o, 0) for o in OUTCOMES},
                     completed_ranges=ranges, from_cache=True)
        for f in _STORED:
            if f.name in data and f.default is not MISSING:
                setattr(result, f.name, type(f.default)(data[f.name]))
        return result


#: (name, rule) of every field :meth:`CampaignResult.absorb` merges.
_MERGED = tuple((f.name, f.metadata["merge"]) for f in fields(CampaignResult)
                if f.metadata.get("merge") is not None)
#: Fields the wire form carries, in wire order.
_STORED = tuple(f for f in fields(CampaignResult) if f.metadata.get("stored"))

#: The injector that built the last golden capture in this process (a
#: weak reference, or None); see :meth:`FaultInjector.checkpoints`.
_capture_holder = None


class FaultInjector:
    """Runs statistical and per-instruction FI campaigns on one module.

    With ``checkpoint`` enabled (the default) the first trial triggers
    one instrumented golden pass that captures golden-prefix snapshots
    (:mod:`repro.interp.checkpoint`); every trial then restores the
    nearest snapshot at-or-before its injection point and executes only
    the program suffix, and stops early if it rejoins the golden run
    (``converged_trials``).  Outcomes are bit-identical to cold full
    runs — only wall-clock changes.  Any unexpected failure in the checkpoint
    path permanently falls back to cold runs for this injector
    (``checkpoint_degraded``), mirroring the worker-pool degradation
    policy in :mod:`repro.sched.executor`: correctness never depends on
    the optimization.
    """

    def __init__(self, module: Module, engine: ExecutionEngine | None = None,
                 hang_multiplier: int = 10, golden=None,
                 checkpoint: bool = True, checkpoint_stride: int = 0,
                 max_snapshots: int = 192, interp_tier: str | None = None,
                 batch_lanes: int = 0):
        self.module = module
        #: Tier of subsequent trials (see :meth:`configure_tier`).
        self.interp_tier = resolve_tier(interp_tier)
        self.engine = engine or ExecutionEngine(module)
        self.checkpoint = checkpoint
        self.checkpoint_stride = checkpoint_stride
        self.max_snapshots = max_snapshots
        self.checkpoint_degraded = False
        #: Lanes per lockstep group on the batch tier; <= 0 picks the
        #: tier's default.  Irrelevant (and harmless) on codegen.
        self.batch_lanes = batch_lanes
        self._capture = None
        # ``golden`` may be a cached GoldenSummary (see repro.cache),
        # skipping the fault-free reference execution entirely — the
        # main per-worker saving when a campaign re-materializes the
        # module in a fresh process.
        self.golden = golden if golden is not None else self.engine.golden()
        self._golden_outputs = self.golden.outputs
        counts = self.golden.instruction_counts()
        # Eligible targets: executed instructions with a destination
        # register whose value is used by at least one other instruction,
        # with their dynamic counts and register widths.
        self.target_iids: list[int] = []
        self.target_counts: list[int] = []
        self.target_bits: list[int] = []
        cumulative = 0
        self._cumulative: list[int] = []
        for inst in module.instructions():
            if not inst.has_result or not inst.users:
                continue
            count = counts.get(inst.iid, 0)
            if count == 0:
                continue
            self.target_iids.append(inst.iid)
            self.target_counts.append(count)
            self.target_bits.append(inst.type.bits)
            cumulative += count
            self._cumulative.append(cumulative)
        if not self.target_iids:
            raise ValueError(f"{module.name}: no injectable instructions")
        self.total_dynamic_targets = cumulative
        self.hang_budget = max(
            10_000, hang_multiplier * self.golden.dynamic_count
        )

    # ------------------------------------------------------------------

    def sample_injection(self, rng: random.Random) -> Injection:
        """One fault, uniform over all eligible dynamic instances."""
        pick = rng.randrange(self.total_dynamic_targets)
        index = bisect_right(self._cumulative, pick)
        occurrence = rng.randint(1, self.target_counts[index])
        return Injection(self.target_iids[index], occurrence,
                         rng.randrange(self.target_bits[index]))

    def injection_for(self, iid: int, rng: random.Random) -> Injection:
        """One fault targeted at a specific static instruction."""
        try:
            index = self.target_iids.index(iid)
        except ValueError:
            raise ValueError(
                f"instruction #{iid} is not an eligible injection target"
            ) from None
        occurrence = rng.randint(1, self.target_counts[index])
        return Injection(iid, occurrence,
                         rng.randrange(self.target_bits[index]))

    # -- interpreter-tier plumbing -------------------------------------

    def configure_tier(self, tier: str | None) -> None:
        """(Re)select the interpreter tier for subsequent trials.

        ``None`` selects the resolved default tier, never the tier an
        earlier span left.  Like :meth:`configure_checkpoints`, this is
        cheap to call per span: every tier runs on the one engine, so
        switching recompiles nothing.
        """
        self.interp_tier = resolve_tier(tier)

    def configure_batch(self, lanes: int) -> None:
        """Set the lockstep group width for subsequent batch-tier spans."""
        self.batch_lanes = lanes

    def _batch_active(self) -> bool:
        """True when trials should run as lockstep groups.

        The batch tier degrades to plain codegen execution when numpy
        is not installed (the package's base dependencies are empty) —
        counts are bit-identical either way, so this mirrors the
        checkpoint/worker-pool degradation policy.
        """
        if self.interp_tier != TIER_BATCH:
            return False
        from ..interp.batch import HAVE_NUMPY
        return HAVE_NUMPY

    def _effective_lanes(self) -> int:
        if self.batch_lanes > 0:
            return self.batch_lanes
        from ..interp.batch import DEFAULT_BATCH_LANES
        return DEFAULT_BATCH_LANES

    # -- checkpoint plumbing -------------------------------------------

    def configure_checkpoints(self, enabled: bool, stride: int = 0) -> None:
        """(Re)configure suffix-only execution for subsequent trials.

        Campaign drivers call this per span; the capture set survives
        reconfiguration unless the stride changes, so a worker pays for
        at most one golden pass per (module, stride).
        """
        if stride != self.checkpoint_stride:
            self._capture = None
            self.checkpoint_stride = stride
        if enabled and not self.checkpoint:
            self.checkpoint_degraded = False
        self.checkpoint = enabled

    def release_capture(self) -> None:
        """Free the golden capture; the next checkpointed span rebuilds
        it (and accounts for that pass)."""
        self._capture = None

    def checkpoints(self):
        """The lazily-built GoldenCapture, or None when disabled/degraded.

        At most one capture per process stays alive: building one first
        releases the capture of the injector that built the previous
        one, which rebuilds it if it runs checkpointed again.
        """
        global _capture_holder
        if not self.checkpoint:
            return None
        if self._capture is None:
            holder = _capture_holder() if _capture_holder is not None else None
            if holder is not None:
                holder.release_capture()
            _capture_holder = weakref.ref(self)
            stride = self.checkpoint_stride
            if stride <= 0:
                stride = max(
                    1, self.golden.dynamic_count // self.max_snapshots
                )
            try:
                self._capture = self.engine.capture(
                    stride, self.max_snapshots
                )
            except Exception:
                self.checkpoint = False
                self.checkpoint_degraded = True
                return None
        return self._capture

    def _classify(self, result) -> str:
        if result.outcome == CRASH:
            return CRASHED
        if result.outcome == HANG:
            return HUNG
        if result.outcome == DETECTED:
            return CAUGHT
        if result.outputs != self._golden_outputs:
            return SDC
        return BENIGN

    def _execute_trial(self, injection: Injection, capture,
                       tally: CampaignResult) -> str:
        """One trial: add its outcome and its executed, skipped and
        converged accounting to ``tally``; return the outcome."""
        result = None
        if capture is not None and self.checkpoint:
            try:
                result = capture.trial(injection, self.hang_budget)
            except Exception:
                # Legitimate fault outcomes are classified inside the
                # run; anything escaping is a checkpoint bug — fall
                # back to cold runs for good rather than risk counts.
                self.checkpoint = False
                self.checkpoint_degraded = True
        if result is None:
            result = self.engine.run(injection, budget=self.hang_budget)
        outcome = self._classify(result)
        skipped = result.golden_prefix + result.golden_suffix
        tally.counts[outcome] += 1
        tally.dynamic_instructions += result.dynamic_count - skipped
        tally.skipped_instructions += skipped
        if result.golden_suffix:
            tally.converged_trials += 1
        return outcome

    def run_one(self, injection: Injection) -> str:
        """Execute once with the fault armed and classify the outcome."""
        return self._execute_trial(injection, self.checkpoints(),
                                   CampaignResult())

    # ------------------------------------------------------------------

    def run_span(self, start: int, count: int, campaign_seed: int,
                 target: int | None = None) -> CampaignResult:
        """Execute runs [start, start+count) of a seeded campaign.

        Each run draws from its own substream (see :mod:`repro.fi.seeds`),
        so a span's counts depend only on the campaign seed and the run
        indices it covers — never on which process executes it or what
        ran before it.  Campaign drivers partition [0, n) into spans and
        merge the results, each of which names its own range in
        ``completed_ranges``.

        With a ``target`` iid every run injects that static instruction
        (a per-instruction campaign, Table II): run ``i`` draws from
        substream ``i`` of ``seed_for(campaign_seed, target)``, so each
        instruction's runs are independent of which other instructions
        were targeted and in what order.

        All injections are sampled up front (so counts cannot depend on
        execution order), then — in checkpoint mode — sorted by their
        fork point so consecutive trials restore from the same snapshot
        while its memory image is hot in cache.
        """
        result = CampaignResult(completed_ranges=[(start, count)])
        started = time.perf_counter()
        if target is None:
            trials = [
                self.sample_injection(rng_for(campaign_seed, run_index))
                for run_index in range(start, start + count)
            ]
        else:
            target_seed = seed_for(campaign_seed, target)
            trials = [
                self.injection_for(target, rng_for(target_seed, run_index))
                for run_index in range(start, start + count)
            ]
        had_capture = self._capture is not None
        capture = self.checkpoints()
        if capture is not None and not had_capture:
            # Account the instrumented golden pass this span paid for.
            result.snapshot_bytes += capture.total_bytes
            result.dynamic_instructions += capture.result.dynamic_count
        if capture is not None:
            def fork_point(injection):
                snapshot = capture.snapshot_for(injection)
                return snapshot.dynamic_count if snapshot else 0
            trials.sort(key=fork_point)
        if self._batch_active():
            self._run_scheduled_batch(trials, capture, result)
        else:
            for injection in trials:
                self._execute_trial(injection, capture, result)
        result.checkpointed = capture is not None
        result.checkpoint_degraded = self.checkpoint_degraded
        result.interp_tier = self.interp_tier
        elapsed = time.perf_counter() - started
        result.wall_seconds = elapsed
        result.cpu_seconds = elapsed
        return result

    def _run_scheduled_batch(self, scheduled, capture,
                             result: CampaignResult) -> None:
        """Execute a span's scheduled trials as lockstep groups.

        Consecutive trials of the (fork-point-sorted) schedule share a
        group, which restores from the earliest lane's snapshot; a lane
        that leaves lockstep re-runs as the capture's trial and may
        rejoin the golden run (``converged_trials``).  A group that
        fails for any reason re-runs its trials one by one on the
        scalar path (``batch_fallbacks``) — counts are never lost or
        changed.
        """
        lanes = self._effective_lanes()
        runner = self.engine.batch_runner()
        result.batch_lanes = max(result.batch_lanes, lanes)
        for start in range(0, len(scheduled), lanes):
            trials = scheduled[start:start + lanes]
            try:
                group = runner.run_group(
                    trials, capture if self.checkpoint else None,
                    budget=self.hang_budget,
                )
            except Exception:
                result.batch_fallbacks += 1
                for injection in trials:
                    self._execute_trial(injection, capture, result)
                continue
            for trial_result in group.results:
                result.counts[self._classify(trial_result)] += 1
                if trial_result.golden_suffix:
                    result.converged_trials += 1
            result.dynamic_instructions += group.executed
            result.skipped_instructions += group.skipped
            result.batch_divergences += group.divergences
            result.batch_reconverged += group.reconverged
            result.batch_drains += group.drains
            result.drain_instructions += group.drain_executed

    def campaign(self, n: int, seed: int = 0) -> CampaignResult:
        """Statistical campaign: n random faults over the whole program."""
        result = self.run_span(0, n, seed)
        result.runs_requested = n
        result.rounds = 1
        return result

    def eligible_iids(self) -> list[int]:
        return list(self.target_iids)
