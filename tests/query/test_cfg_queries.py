"""CFG queries: per-engine memoization and hit/miss counting."""

from __future__ import annotations

import pytest

from repro.analysis.controldep import ControlDependence
from repro.core import trident_config
from repro.ir.instructions import BinOp
from repro.profiling import ProfilingInterpreter
from repro.query import QueryEngine
from tests.conftest import build_accumulator_module

CFG_QUERIES = (
    "cfg.control_dependence", "cfg.loop_info", "cfg.postdominators",
)


@pytest.fixture
def module():
    return build_accumulator_module()


@pytest.fixture
def profile(module):
    return ProfilingInterpreter(module).run()[0]


def engine_for(module, profile) -> QueryEngine:
    return QueryEngine(module, profile, trident_config(), shared=False)


class TestCfgQueries:
    def test_second_lookup_returns_same_object(self, module, profile):
        engine = engine_for(module, profile)
        main = module.functions["main"]
        first = engine.cfg("cfg.control_dependence", main)
        second = engine.cfg("cfg.control_dependence", main)
        assert isinstance(first, ControlDependence)
        assert first is second
        assert engine.stats.rows() == [("cfg.control_dependence", 1, 1, 0)]

    def test_names_are_independent(self, module, profile):
        engine = engine_for(module, profile)
        main = module.functions["main"]
        for name in CFG_QUERIES:
            engine.cfg(name, main)
        assert engine.stats.rows() == [(name, 0, 1, 0) for name in CFG_QUERIES]

    def test_unknown_name_raises(self, module, profile):
        engine = engine_for(module, profile)
        with pytest.raises(KeyError, match="unknown CFG query"):
            engine.cfg("cfg.does-not-exist", module.functions["main"])

    def test_new_engine_over_mutated_module_recomputes(self, module, profile):
        main = module.functions["main"]
        before = engine_for(module, profile).cfg(
            "cfg.control_dependence", main
        )
        binop = next(
            i for i in module.instructions()
            if isinstance(i, BinOp) and i.op == "add"
        )
        binop.op = "sub"
        module.finalize()
        engine = engine_for(module, profile)
        after = engine.cfg("cfg.control_dependence", main)
        assert after is not before
        assert engine.stats.rows() == [("cfg.control_dependence", 0, 1, 0)]
