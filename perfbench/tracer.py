"""Outside-in span tracer for the benchmark's traced runs.

Nothing under ``src/`` is instrumented.  Instead :meth:`Tracer.install`
replaces a fixed set of public class methods with timing wrappers, so
every caller is reached however it imported the class, and the
benchmark opens spans itself around the module functions it calls
(``build_module``, ``module_fingerprint``, ``run_store_campaign``).

Spans (name, start, end, parent, thread) are kept in memory and written
out at the end as Chrome trace-event JSON, which Perfetto and
``chrome://tracing`` open directly.  A layer's self time is its span
duration minus the time its direct child spans cover.  Times come from
``time.perf_counter``, which on Linux is ``CLOCK_MONOTONIC`` and so is
comparable across the benchmark and its daemon subprocess.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Nested spans per thread plus additive counters."""

    def __init__(self):
        #: [name, start, end, parent index or -1, pid, thread id]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        #: QueryStats of every model built while installed.
        self.query_stats: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, time.perf_counter(), 0.0,
                  stack[-1] if stack else -1, os.getpid(),
                  threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, cls, attr: str, name, after=None) -> None:
        """Time every call of ``cls.attr`` as span ``name``.

        ``name`` may be a callable of the call's ``self`` for methods
        whose layer depends on the instance; ``after(self, args,
        result)`` records counters from the call's result.
        """
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(obj, *args, **kwargs):
            label = name(obj) if callable(name) else name
            with tracer.span(label):
                result = original(obj, *args, **kwargs)
            if after is not None:
                after(tracer, obj, args, result)
            return result

        setattr(cls, attr, traced)
        self._patches.append((cls, attr, original))

    def install(self) -> None:
        """Wrap the layer entry points listed in :func:`_layer_hooks`."""
        for cls, attr, name, after in _layer_hooks():
            self.wrap(cls, attr, name, after)

    def uninstall(self) -> None:
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)

    # -- merging and export ----------------------------------------------

    def absorb(self, path: str) -> None:
        """Merge spans and counters a traced subprocess dumped."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        with self._lock:
            offset = len(self.spans)
            for name, start, end, parent, pid, tid in data["spans"]:
                self.spans.append([name, start, end,
                                   parent + offset if parent >= 0 else -1,
                                   pid, tid])
            for name, amount in data["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + amount

    def dump(self, path: str) -> None:
        """Raw form for :meth:`absorb` (the daemon child writes this)."""
        self.harvest_queries()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": self.counters},
                      handle)

    def harvest_queries(self) -> None:
        """Fold the query-engine hit/miss counters of built models in."""
        stats, self.query_stats = self.query_stats, []
        for qs in stats:
            for hits, misses, _invalidated in qs.counts.values():
                self.count("query.hits", hits)
                self.count("query.misses", misses)

    def layer_times(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds]."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _pid, _tid in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, list] = {}
        for index, (name, start, end, *_rest) in enumerate(self.spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[index]
        return table

    def write_chrome_trace(self, path: str) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [
            {"name": name, "ph": "X", "pid": pid, "tid": tid,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"span": index, "parent": parent}}
            for index, (name, start, end, parent, pid, tid)
            in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


# ---------------------------------------------------------------------------
# The layer entry points and the counters read from their results.


def _after_profile(tracer, _obj, _args, result):
    profile, _outputs = result
    tracer.count("profiling.instructions", profile.dynamic_count)


def _after_model_init(tracer, model, _args, _result):
    tracer.query_stats.append(model.queries.stats)


def _after_run_span(tracer, _obj, _args, result):
    tracer.count("fi.trials", result.total)
    tracer.count("fi.executed_instructions", result.dynamic_instructions)
    tracer.count("fi.skipped_instructions", result.skipped_instructions)
    tracer.count(f"fi.{result.interp_tier}.dynamic_instructions",
                 result.dynamic_instructions)
    tracer.count("interp.codegen.fallbacks", result.codegen_fallbacks)
    tracer.count("interp.batch.fallbacks", result.batch_fallbacks)


def _after_run_group(tracer, _obj, _args, group):
    tracer.count("interp.batch.groups")
    tracer.count("interp.batch.divergences", group.divergences)
    tracer.count("interp.batch.reconverged", group.reconverged)
    tracer.count("interp.batch.drains", group.drains)
    tracer.count("interp.batch.executed", group.executed)
    tracer.count("interp.batch.drain_executed", group.drain_executed)


def _after_load(tracer, _cache, _args, payload):
    tracer.count("cache.load_misses" if payload is None else "cache.load_hits")


def _after_store(tracer, cache, args, stored):
    if stored:
        kind, key = args[0], args[1]
        tracer.count("cache.bytes_written",
                     cache.path_for(kind, key).stat().st_size)


def _model_label(model) -> str:
    return "core.infer_" + model.config.name.replace("+", "_")


def _layer_hooks():
    from repro.cache.disk import ArtifactCache
    from repro.core.trident import Trident
    from repro.fi.campaign import FaultInjector
    from repro.harness.fig5 import Fig5Result
    from repro.interp.batch import BatchRunner
    from repro.interp.engine import ExecutionEngine
    from repro.profiling.profiler import ProfilingInterpreter
    from repro.sched.executor import CampaignExecutor
    from repro.sched.scheduler import Scheduler
    from repro.sched.spec import ModuleSpec

    return [
        (ProfilingInterpreter, "run", "profiling.run", _after_profile),
        (Trident, "__init__", "core.model_build", _after_model_init),
        (Trident, "overall_sdc", _model_label, None),
        (ExecutionEngine, "__init__", "interp.engine_build", None),
        (ExecutionEngine, "golden", "interp.golden", None),
        (ExecutionEngine, "capture", "interp.capture", None),
        (FaultInjector, "run_span", "fi.run_span", _after_run_span),
        (BatchRunner, "run_group", "interp.batch.run_group",
         _after_run_group),
        (ArtifactCache, "load", "cache.load", _after_load),
        (ArtifactCache, "store", "cache.store", _after_store),
        (CampaignExecutor, "run", "sched.executor_run", None),
        (Scheduler, "submit", "sched.submit", None),
        (Scheduler, "execute", "sched.store_campaign", None),
        (ModuleSpec, "materialize", "bench.build", None),
        (Fig5Result, "render", "harness.render", None),
    ]
