"""Lazy, memoized, dependency-validated query evaluation.

The sub-models own their algorithms; the engine builds only the CFG
analyses they read (:meth:`QueryEngine.cfg`, memoized per engine).  It
gives each model (query, function) pair a :class:`StoreView`: a
content-addressed entry dict the sub-model reads before computing and
writes after.  Because the store key is the function's *content*
(canonical fingerprint + profile-slice digest + config projection),
views are shared process-wide across module clones: the warm model
after a transform picks up the untouched functions' entries that the
cold model wrote, with zero invalidation bookkeeping.

Interprocedural entries carry a dependency map
``{function name -> input key at derivation time, "~callgraph" ->
callgraph digest}`` that is revalidated on every read against the
reading engine's module, so an entry derived through a callee that has
since changed (or gained a caller) misses instead of serving a stale
value.
"""

from __future__ import annotations

from ..cache.artifacts import (
    function_results_key,
    load_function_results,
    store_function_results,
)
from ..cache.disk import get_cache
from ..cache.fingerprint import config_digest
from .keys import LocalIndex, callgraph_digest, function_input_keys
from .registry import (
    CFG_BUILDERS,
    QUERIES,
    config_projection,
    query_dag_lines,
)


class _Miss:
    __slots__ = ()

    def __repr__(self) -> str:
        return "MISS"


#: Sentinel distinguishing "no entry" from a legitimately falsy value.
MISS = _Miss()

#: Pseudo-dependency token: the entry depends on the callgraph shape
#: (a *new* caller of a function changes Ret handling inside it without
#: changing any function the entry's old dependency set names).
CALLGRAPH_DEP = "~callgraph"

#: (query name, input key, config projection, salt) -> ({entry key ->
#: _Entry}, roots of the artifact stores that hold every entry).
_SHARED_STORES: dict[tuple, tuple[dict, set]] = {}


def reset_query_stores() -> None:
    """Drop all shared in-memory query stores (tests)."""
    _SHARED_STORES.clear()


class _Entry:
    __slots__ = ("value", "deps")

    def __init__(self, value, deps=None):
        self.value = value
        self.deps = deps


class QueryStats:
    """Per-query hit/miss/invalidation counters for one engine."""

    __slots__ = ("counts",)

    def __init__(self):
        self.counts: dict[str, list[int]] = {}

    def bump(self, name: str, slot: int) -> None:
        self.counts.setdefault(name, [0, 0, 0])[slot] += 1

    def hits(self, name: str) -> int:
        return self.counts.get(name, (0, 0, 0))[0]

    def misses(self, name: str) -> int:
        return self.counts.get(name, (0, 0, 0))[1]

    def invalidated(self, name: str) -> int:
        return self.counts.get(name, (0, 0, 0))[2]

    def rows(self) -> list[tuple[str, int, int, int]]:
        return [(name, *self.counts[name]) for name in sorted(self.counts)]


class StoreView:
    """One (query, function) slice of a content-addressed store.

    ``saved`` names the artifact stores (by root) that hold all of
    ``entries``, which a shared store's views have in common: a ``put``
    empties it, and :meth:`flush` writes to the current store unless it
    is named there, so entries that came from memory still reach a
    store the process switched to.
    """

    __slots__ = ("engine", "name", "function", "entries", "hits", "misses",
                 "saved", "_disk_key")

    def __init__(self, engine: "QueryEngine", name: str, function: str,
                 entries: dict, disk_key: str | None = None,
                 saved: set | None = None):
        self.engine = engine
        self.name = name
        self.function = function
        self.entries = entries
        self.hits = 0
        self.misses = 0
        self.saved = saved if saved is not None else set()
        self._disk_key = disk_key

    def get(self, key):
        """The stored value, or :data:`MISS` (never raises)."""
        entry = self.entries.get(key)
        if entry is not None and entry.deps is not None:
            if not self.engine._deps_valid(entry.deps):
                del self.entries[key]
                self.engine.stats.bump(self.name, 2)
                entry = None
        if entry is None:
            self.misses += 1
            self.engine.stats.bump(self.name, 1)
            return MISS
        self.hits += 1
        self.engine.stats.bump(self.name, 0)
        return entry.value

    def put(self, key, value, deps: dict | None = None):
        self.entries[key] = _Entry(value, deps)
        self.saved.clear()
        return value

    def flush(self) -> bool:
        """Persist this view's entries to the artifact cache, unless it
        already holds them all."""
        cache = get_cache()
        if (self._disk_key is None or not self.entries
                or cache.root in self.saved):
            return False
        payload = {
            key: (entry.value, entry.deps)
            for key, entry in self.entries.items()
        }
        if store_function_results(cache, self._disk_key, payload):
            self.saved.add(cache.root)
            return True
        return False


class QueryEngine:
    """Query-store access for one (module, profile, config) triple.

    ``shared=False`` gives the engine private stores (and no disk
    persistence), so cold-build timings — fig6's inference-cost numbers
    — stay honest instead of silently borrowing another model's work.
    """

    def __init__(self, module, profile, config, *, shared: bool = True):
        self.module = module
        self.profile = profile
        self.config = config
        self.shared = shared
        self.index = LocalIndex.of(module)
        self.stats = QueryStats()
        self._input_keys = function_input_keys(module, profile)
        self._callgraph = callgraph_digest(module)
        self._views: dict[tuple, StoreView] = {}
        self._projections: dict[str, str] = {}
        #: (CFG query name, function name) -> analysis object
        self._cfg: dict[tuple[str, str], object] = {}

    # -- inputs ------------------------------------------------------------

    def input_key(self, name: str) -> str:
        """Current input key of ``name`` (function or pseudo-input).

        Dependency maps always record the *full* key (local + memory
        digests) — conservative: an entry derived from a function whose
        memory behaviour changed must not be served stale.
        """
        if name == CALLGRAPH_DEP:
            return self._callgraph
        pair = self._input_keys.get(name)
        return pair[1] if pair is not None else ""

    def deps_for(self, names, exclude: str | None = None) -> dict | None:
        """Dependency key map over ``names`` (or None when empty)."""
        deps = {
            name: self.input_key(name)
            for name in names if name != exclude
        }
        return deps or None

    def _deps_valid(self, deps: dict) -> bool:
        return all(self.input_key(name) == key for name, key in deps.items())

    # -- stores ------------------------------------------------------------

    def _projection(self, name: str) -> str:
        proj = self._projections.get(name)
        if proj is None:
            proj = config_projection(QUERIES[name], self.config)
            self._projections[name] = proj
        return proj

    def view(self, name: str, function: str, salt=None) -> StoreView:
        """The store view of ``name`` for ``function``.

        Keyed on the function's *content*, not its name — two identical
        functions (or the same function before/after an untouched-module
        transform) share one view.
        """
        view_key = (name, function, salt)
        view = self._views.get(view_key)
        if view is not None:
            return view
        spec = QUERIES[name]
        pair = self._input_keys.get(function, ("", ""))
        # Memory-reading queries (fm, sdc) key on the full digest;
        # everything else survives neighbour-only memory-graph changes.
        input_key = pair[1] if spec.memory else pair[0]
        # Interprocedural results are scoped by function name: identical
        # content does not imply identical call-site routing.
        scope = function if spec.interprocedural else ""
        store_key = (name, scope, input_key, self._projection(name),
                     repr(salt))
        disk_key = None
        if self.shared:
            entries, saved = _SHARED_STORES.setdefault(store_key,
                                                       ({}, set()))
            if spec.persist:
                disk_key = function_results_key(
                    name, input_key, self._projection(name), repr(salt),
                    scope,
                )
                if not entries:
                    cache = get_cache()
                    loaded = load_function_results(cache, disk_key)
                    for local, (value, deps) in (loaded or {}).items():
                        entries.setdefault(local, _Entry(value, deps))
                    if loaded:
                        saved.add(cache.root)
        else:
            entries, saved = {}, None
        view = StoreView(self, name, function, entries, disk_key, saved)
        self._views[view_key] = view
        return view

    def flush(self) -> int:
        """Write all dirty persisted views to the artifact cache."""
        return sum(1 for view in self._views.values() if view.flush())

    # -- CFG analyses ------------------------------------------------------

    def cfg(self, name: str, function):
        """The CFG analysis ``name`` of ``function``, memoized per engine.

        The engine's module never changes under it (transforms run on
        clones, which get engines of their own), so entries need no
        invalidation.
        """
        try:
            build = CFG_BUILDERS[name]
        except KeyError:
            raise KeyError(
                f"unknown CFG query {name!r}; available: "
                f"{tuple(CFG_BUILDERS)}"
            ) from None
        slot = (name, function.name)
        result = self._cfg.get(slot)
        if result is None:
            result = self._cfg[slot] = build(function)
            self.stats.bump(name, 1)
        else:
            self.stats.bump(name, 0)
        return result

    # -- reporting ---------------------------------------------------------

    def explain(self) -> list[str]:
        """Query DAG plus this engine's per-query counters."""
        lines = ["query DAG:"]
        lines += ["  " + line for line in query_dag_lines()]
        lines.append("")
        lines.append(f"config digest: {config_digest(self.config)[:16]}")
        lines.append(f"callgraph digest: {self._callgraph[:16]}")
        lines.append("")
        rows = self.stats.rows()
        if rows:
            lines.append("query counters (hit/miss/invalidated):")
            for name, hits, misses, invalidated in rows:
                lines.append(
                    f"  {name:<22} {hits:>6}h {misses:>6}m {invalidated:>4}i"
                )
        else:
            lines.append("query counters: no queries evaluated yet")
        return lines
