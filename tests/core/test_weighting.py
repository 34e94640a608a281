"""Divergence weighting: post-dominating terminals vs guarded ones."""

import pytest

from repro.core import trident_config
from repro.core.weighting import ExecutionWeigher
from repro.ir import I32, FunctionBuilder, Module
from repro.ir.instructions import BinOp, Output
from repro.profiling import ProfilingInterpreter
from repro.query import QueryEngine


def build_module_with_loop_and_guard():
    """An accumulator loop feeding one final output, plus an if-guarded
    output inside the loop body."""
    module = Module("m")
    f = FunctionBuilder(module, "main")
    total = f.local("t", I32, init=0)

    def body(i):
        total.set(total.get() + i)
        # Guarded output: executes for 3 of 10 iterations.
        f.if_(i < 3, lambda: f.out(i + 100))

    f.for_range(0, 10, body)
    f.out(total.get())
    f.done()
    module.finalize()
    profile, _ = ProfilingInterpreter(module).run()
    return module, profile


class TestExecutionWeigher:
    def test_postdominating_output_weight_one(self):
        """The final output runs once but post-dominates the loop body:
        every body execution reaches it — weight must be 1, not 1/10."""
        module, profile = build_module_with_loop_and_guard()
        weigher = ExecutionWeigher(module, profile)
        add = next(
            i for i in module.instructions()
            if isinstance(i, BinOp) and i.op == "add"
            and profile.count(i.iid) == 10
        )
        final_output = next(
            i for i in module.instructions()
            if isinstance(i, Output) and profile.count(i.iid) == 1
        )
        assert weigher.weight(add, final_output) == 1.0

    def test_guarded_output_weight_is_ratio(self):
        """The in-loop guarded output does not post-dominate the adds:
        the profiled count ratio (3/10) applies — the Fig. 4 weighting."""
        module, profile = build_module_with_loop_and_guard()
        weigher = ExecutionWeigher(module, profile)
        add = next(
            i for i in module.instructions()
            if isinstance(i, BinOp) and i.op == "add"
            and profile.count(i.iid) == 10
        )
        guarded_output = next(
            i for i in module.instructions()
            if isinstance(i, Output) and profile.count(i.iid) == 3
        )
        assert weigher.weight(add, guarded_output) == pytest.approx(0.3)

    def test_cross_function_falls_back_to_ratio(self):
        module = Module("m")
        helper = FunctionBuilder(module, "emit", [I32], ["x"])
        helper.out(helper.arg(0))
        helper.done()
        f = FunctionBuilder(module, "main")
        value = f.c(1) + 2
        f.if_(f.c(1) < 2, lambda: f.call("emit", [value]))
        f.done()
        module.finalize()
        profile, _ = ProfilingInterpreter(module).run()
        weigher = ExecutionWeigher(module, profile)
        add = next(
            i for i in module.instructions()
            if isinstance(i, BinOp) and i.op == "add"
        )
        output = next(
            i for i in module.instructions() if isinstance(i, Output)
        )
        weight = weigher.weight(add, output)
        assert weight == profile.execution_probability(output.iid, add.iid)

    def test_postdominator_cache(self):
        """Post-dominators are built once per function per engine, however
        many weights read them."""
        module, profile = build_module_with_loop_and_guard()
        engine = QueryEngine(module, profile, trident_config(), shared=False)
        weigher = ExecutionWeigher(module, profile, engine)
        adds = [
            i for i in module.instructions() if isinstance(i, BinOp)
        ]
        outputs = [
            i for i in module.instructions() if isinstance(i, Output)
        ]
        for add in adds:
            for output in outputs:
                weigher.weight(add, output)
        assert len(adds) * len(outputs) > 1
        assert engine.stats.misses("cfg.postdominators") == 1
        assert engine.stats.hits("cfg.postdominators") == (
            len(adds) * len(outputs) - 1
        )
