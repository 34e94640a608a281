"""The incremental-analysis acceptance bar of the query pipeline.

Three guarantees, from strongest to broadest:

* function granularity — mutating one function of a two-function
  module leaves every query of the untouched function served from the
  shared stores (zero misses);
* bit-identity — on every figure-harness benchmark, an incremental
  re-model after selective duplication and after an opt-pipeline run
  agrees bit-for-bit with a cold rebuild of the same module;
* work — the warm protection-loop re-model recomputes at most a
  quarter of the queries the cold rebuild it replaces recomputes.
"""

from __future__ import annotations

import pytest

from repro.bench import build_module
from repro.cache.fingerprint import function_fingerprint
from repro.core.simple_models import create_model
from repro.ir import I32, FunctionBuilder, Module
from repro.opt.pipeline import optimize
from repro.profiling import ProfilingInterpreter
from repro.protection.duplication import (
    duplicable_iids,
    duplicate_instructions,
)
from repro.query import reset_query_stores
from tests.conftest import cached_module, cached_profile


def _two_function_module(variant: int) -> Module:
    """main + helper; ``variant`` rewrites *helper's body only*.

    Both variants return the same values from helper, so main's
    dynamic behavior — and therefore its profile slice — is identical;
    only helper's fingerprint changes between variants.
    """
    module = Module(f"twofn_v{variant}")
    g = FunctionBuilder(module, "helper", arg_types=[I32],
                        arg_names=["x"], return_type=I32)
    x = g.arg(0)
    if variant == 0:
        g.ret(x * 3 + 1)
    else:
        g.ret(x * 3 + 2 - 1)  # same values, different instructions
    g.done()

    f = FunctionBuilder(module, "main")
    n = 8
    arr = f.array("arr", I32, n)
    f.for_range(0, n, lambda i: arr.__setitem__(i, i * 2 + 1))
    total = f.local("total", I32, init=0)
    f.for_range(0, n, lambda i: total.set(total.get() + arr[i]))
    f.out(total.get())
    # Constant call argument: no main-resident producer feeds helper,
    # so main's own propagation walks never leave main.
    y = f.call("helper", [f.c(7)], I32)
    f.out(y)
    f.done()
    return module.finalize()


def _model(module, profile, *, shared: bool):
    """A TRIDENT model on the shared query stores or on private ones."""
    return create_model("trident", module, profile, shared=shared)


class TestFunctionGranularity:
    UNTOUCHED_QUERIES = (
        "model.tuples", "model.fc", "model.fs", "model.fm",
        "model.weighting", "model.sdc",
    )

    def test_untouched_function_served_from_cache(self):
        reset_query_stores()
        base = _two_function_module(0)
        mutated = _two_function_module(1)
        assert (function_fingerprint(base.functions["main"])
                == function_fingerprint(mutated.functions["main"]))
        assert (function_fingerprint(base.functions["helper"])
                != function_fingerprint(mutated.functions["helper"]))

        profile, _ = ProfilingInterpreter(base).run()
        first = _model(base, profile, shared=True)
        cold_map = first.sdc_map()

        mutated_profile, _ = ProfilingInterpreter(mutated).run()
        second = _model(mutated, mutated_profile, shared=True)
        warm_map = second.sdc_map()

        engine = second.queries
        for name in self.UNTOUCHED_QUERIES:
            view = engine.view(name, "main")
            assert view.misses == 0, f"{name} recomputed for untouched main"
        # A model.sdc hit short-circuits the whole pipeline for that
        # instruction, so downstream queries legitimately show zero
        # traffic; the top-level query must actually have been served.
        assert engine.view("model.sdc", "main").hits > 0
        # The mutated function really did recompute (fresh input key).
        assert engine.view("model.tuples", "helper").misses > 0
        assert cold_map and warm_map


@pytest.mark.usefixtures("fresh_default_cache")
class TestIncrementalBitIdentity:
    def _assert_incremental_matches_cold(self, module, benchmark_name,
                                         untouched: set[str]):
        profile, _ = ProfilingInterpreter(module).run()
        incremental = _model(module, profile, shared=True)
        incremental_map = incremental.sdc_map()

        cold = _model(module, profile, shared=False)
        cold_map = cold.sdc_map()

        assert incremental_map == cold_map, (
            f"{benchmark_name}: incremental re-model diverged from cold"
        )
        # Intra-function queries of untouched functions never recompute.
        for name in untouched:
            for query in ("model.tuples", "model.fc"):
                view = incremental.queries.view(query, name)
                assert view.misses == 0, (
                    f"{benchmark_name}: {query} recomputed for untouched "
                    f"function {name}"
                )

    def test_after_duplication(self, benchmark_name):
        reset_query_stores()
        module = cached_module(benchmark_name)
        profile = cached_profile(benchmark_name)[0]
        _model(module, profile, shared=True).sdc_map()  # warm the stores

        candidates = [
            iid for iid in duplicable_iids(module) if profile.count(iid) > 0
        ]
        protected, report = duplicate_instructions(module, candidates[:4])
        untouched = set(module.functions) - report.touched_functions
        self._assert_incremental_matches_cold(
            protected, benchmark_name, untouched
        )

    def test_after_optimization(self, benchmark_name):
        reset_query_stores()
        module = cached_module(benchmark_name)
        profile = cached_profile(benchmark_name)[0]
        _model(module, profile, shared=True).sdc_map()  # warm the stores

        optimized, report = optimize(module, level=1)
        untouched = set(module.functions) - report.touched_functions
        self._assert_incremental_matches_cold(
            optimized, benchmark_name, untouched
        )


class TestRemodelWork:
    #: The expensive per-function queries a re-model recomputes on a miss.
    COUNTED_QUERIES = ("model.tuples", "model.fs", "model.weighting")

    def test_warm_remodel_quarter_of_cold_work(self):
        # hercules at "small" scale: the hot ``main`` stays untouched;
        # only the tiny ``laplacian`` helper is protected, so the warm
        # re-model reuses nearly all of the expensive work.  Work is
        # counted as query misses, not seconds, so a scheduling stall
        # cannot fail the check.
        reset_query_stores()
        module = build_module("hercules", "small")
        profile, _ = ProfilingInterpreter(module).run()
        _model(module, profile, shared=True).sdc_map()

        duplicable = set(duplicable_iids(module))
        helper_iids = [
            inst.iid
            for inst in module.functions["laplacian"].instructions()
            if inst.iid in duplicable
        ]
        assert helper_iids
        protected, report = duplicate_instructions(module, helper_iids[:3])
        assert report.touched_functions == {"laplacian"}
        pprofile, _ = ProfilingInterpreter(protected).run()

        cold = _model(protected, pprofile, shared=False)
        cold_map = cold.sdc_map()
        warm = _model(protected, pprofile, shared=True)
        warm_map = warm.sdc_map()

        assert warm_map == cold_map
        for name in self.COUNTED_QUERIES:
            cold_misses = cold.queries.stats.misses(name)
            warm_misses = warm.queries.stats.misses(name)
            assert warm_misses * 4 <= cold_misses, (
                f"{name}: warm {warm_misses} misses vs cold {cold_misses}"
            )
