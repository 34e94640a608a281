"""The program profile: everything TRIDENT's inference phase consumes.

This is the output of the profiling phase (Sec. IV-A): instruction
execution counts, branch probabilities, sampled operand values, memory
dependency edges (already pruned to static store→load pairs, Sec. IV-E),
and memory-footprint-derived crash probabilities for address-corrupting
faults (Sec. IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MemDepStats:
    """Aggregate statistics of the memory dependency pruning (Fig. 7)."""

    dynamic_dependencies: int = 0
    static_edges: int = 0

    @property
    def pruned_fraction(self) -> float:
        """Fraction of dynamic load→store dependencies collapsed away."""
        if self.dynamic_dependencies == 0:
            return 0.0
        kept = min(self.static_edges, self.dynamic_dependencies)
        return 1.0 - kept / self.dynamic_dependencies


@dataclass
class ProgramProfile:
    """Dynamic execution facts for one (program, input) pair."""

    #: Execution count per static instruction id.
    inst_counts: dict[int, int] = field(default_factory=dict)
    #: Conditional branch iid -> [false_count, true_count].
    branch_counts: dict[int, list[int]] = field(default_factory=dict)
    #: Select iid -> [false_count, true_count].
    select_counts: dict[int, list[int]] = field(default_factory=dict)
    #: iid -> reservoir of operand tuples observed at runtime.
    operand_samples: dict[int, list[tuple]] = field(default_factory=dict)
    #: Memory-access iid -> sampled P(crash | address bit flip).
    crash_prob_samples: dict[int, list[float]] = field(default_factory=dict)
    #: (store_iid, load_iid) -> number of dynamic dependencies observed.
    mem_edges: dict[tuple[int, int], int] = field(default_factory=dict)
    #: store iid -> total dynamic instances.
    store_instances: dict[int, int] = field(default_factory=dict)
    #: store iid -> instances whose value was read at least once.
    store_instances_read: dict[int, int] = field(default_factory=dict)
    #: store iid -> instances that rewrote the value already in the cell
    #: ("silent stores": flipping their execution is coincidentally
    #: correct — the lucky-store effect of Sec. VII-A).
    silent_stores: dict[int, int] = field(default_factory=dict)
    #: (store iid, frozenset of reader load iids) -> instance count.
    #: Records, per store instance, exactly which loads observed it —
    #: the statistic fm needs to combine multiple readers correctly
    #: (exclusive across instance partitions, joint within one).
    store_reader_sets: dict[tuple[int, frozenset], int] = field(
        default_factory=dict
    )
    #: Total dynamic instructions of the profiled run.
    dynamic_count: int = 0
    #: Peak memory footprint in bytes.
    footprint_bytes: int = 0
    #: Memory dependency pruning statistics.
    memdep_stats: MemDepStats = field(default_factory=MemDepStats)
    #: Wall-clock seconds the profiling run took (Fig. 6/7 cost model).
    profiling_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Accessors used by the model
    # ------------------------------------------------------------------

    def count(self, iid: int) -> int:
        return self.inst_counts.get(iid, 0)

    def execution_probability(self, iid: int, relative_to: int) -> float:
        """exec(iid) / exec(relative_to), clamped to [0, 1]."""
        base = self.count(relative_to)
        if base == 0:
            return 0.0
        return min(1.0, self.count(iid) / base)

    def branch_taken_probability(self, iid: int) -> float:
        """P(branch takes its True direction), 0.5 if never executed."""
        counts = self.branch_counts.get(iid)
        if not counts or sum(counts) == 0:
            return 0.5
        return counts[1] / sum(counts)

    def branch_direction_probability(self, iid: int, direction: bool) -> float:
        taken = self.branch_taken_probability(iid)
        return taken if direction else 1.0 - taken

    def select_true_probability(self, iid: int) -> float:
        counts = self.select_counts.get(iid)
        if not counts or sum(counts) == 0:
            return 0.5
        return counts[1] / sum(counts)

    def samples(self, iid: int) -> list[tuple]:
        return self.operand_samples.get(iid, [])

    def crash_probability(self, iid: int) -> float:
        """Mean sampled P(crash) of a memory access with a corrupted address."""
        samples = self.crash_prob_samples.get(iid)
        if not samples:
            return 0.0
        return sum(samples) / len(samples)

    def loads_reading(self, store_iid: int) -> list[tuple[int, float]]:
        """(load_iid, weight) edges out of a store in the pruned graph
        (see :meth:`StoreGroups.loads_reading`)."""
        return StoreGroups(self).loads_reading(store_iid)

    def reader_set_distribution(
        self, store_iid: int,
    ) -> list[tuple[frozenset, float]]:
        """Distribution over which load sets observe one store instance
        (see :meth:`StoreGroups.reader_set_distribution`)."""
        return StoreGroups(self).reader_set_distribution(store_iid)

    def silent_store_fraction(self, store_iid: int) -> float:
        """Fraction of a store's instances that rewrote the same value."""
        total = self.store_instances.get(store_iid, 0)
        if total == 0:
            return 0.0
        return self.silent_stores.get(store_iid, 0) / total

    def store_read_fraction(self, store_iid: int) -> float:
        """Fraction of a store's instances ever reloaded (rest are dead)."""
        total = self.store_instances.get(store_iid, 0)
        if total == 0:
            return 0.0
        return self.store_instances_read.get(store_iid, 0) / total


class StoreGroups:
    """A profile's memory edges and reader sets, grouped by store once.

    fm reads every store's statistics once per fixed-point iteration;
    grouping the profile once per model replaces a scan of the whole
    profile per read.  Each group keeps the profile's insertion order,
    which fixes fm's summation order.  A snapshot: build it after the
    profile is complete.
    """

    def __init__(self, profile: ProgramProfile):
        self._instances = profile.store_instances
        self._edges: dict[int, list[tuple[int, int]]] = {}
        for (store_iid, load_iid), count in profile.mem_edges.items():
            self._edges.setdefault(store_iid, []).append((load_iid, count))
        self._reader_sets: dict[int, list[tuple[frozenset, int]]] = {}
        for (store_iid, readers), count in profile.store_reader_sets.items():
            self._reader_sets.setdefault(store_iid, []).append(
                (readers, count)
            )

    def loads_reading(self, store_iid: int) -> list[tuple[int, float]]:
        """(load_iid, weight) edges out of a store in the pruned graph.

        The weight is the fraction of the store's dynamic instances whose
        value that load observed — the aggregate dependency between the
        symmetric loops of Sec. IV-E.
        """
        total = self._instances.get(store_iid, 0)
        if total == 0:
            return []
        return [(load_iid, min(1.0, count / total))
                for load_iid, count in self._edges.get(store_iid, ())]

    def reader_set_distribution(
        self, store_iid: int,
    ) -> list[tuple[frozenset, float]]:
        """Distribution over which load sets observe one store instance.

        Returns (reader set, fraction of instances) pairs; the empty set
        (instances overwritten or never read) is included, so fractions
        sum to 1 for any store with recorded instances.
        """
        total = self._instances.get(store_iid, 0)
        if total == 0:
            return []
        out = []
        seen = 0
        for readers, count in self._reader_sets.get(store_iid, ()):
            out.append((readers, count / total))
            seen += count
        if seen < total:  # instances still live at a function exit
            out.append((frozenset(), (total - seen) / total))
        return out
