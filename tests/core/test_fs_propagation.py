"""fs and the forward propagator: the Fig. 2b aggregation and the
event-merged DAG semantics."""

import pytest

from repro.core import TupleDeriver, trident_config
from repro.core.propagation import (
    EV_BRANCH,
    EV_OUTPUT,
    EV_STORE,
    ForwardPropagator,
)
from repro.ir import I32, FunctionBuilder, Module
from repro.ir.instructions import BinOp, Load
from repro.profiling import ProfilingInterpreter


def build_fig2b() -> Module:
    """load -> add 1 -> cmp sgt 0 -> branch, on a counter from -N to 0."""
    module = Module("fig2b")
    f = FunctionBuilder(module, "main")
    counter = f.local("c", I32, init=-40)

    def body():
        counter.set(counter.get() + 1)

    f.while_(lambda: counter.get() < 0, body)
    f.out(counter.get())
    f.done()
    return module.finalize()


@pytest.fixture(scope="module")
def fig2b():
    module = build_fig2b()
    profile, _ = ProfilingInterpreter(module).run()
    config = trident_config()
    tuples = TupleDeriver(profile, config)
    propagator = ForwardPropagator(module, tuples, config)
    return module, profile, tuples, propagator


def _cond_load(module, profile):
    """The load in the loop-condition block (feeds icmp -> branch)."""
    return next(
        inst for inst in module.instructions()
        if isinstance(inst, Load) and profile.count(inst.iid) > 0
        and any(u.opcode == "icmp" for u in inst.users)
    )


class TestFig2bAggregation:
    def test_sequence_propagation_is_small(self, fig2b):
        """The paper's 1 * 1 * 0.03 = 3% aggregation: a fault in the
        counter load reaches the branch with low probability because
        only sign-adjacent bits flip the comparison."""
        module, profile, tuples, propagator = fig2b
        load = _cond_load(module, profile)
        events = propagator.propagate(load).events
        branch_events = [e for e in events if e.kind == EV_BRANCH]
        assert branch_events
        # The counter values are spread over -40..0, so the decisive-bit
        # fraction varies per sample; it must stay well under 30%.
        assert 0.0 < branch_events[0].probability < 0.3

    def test_path_based_fs_agrees_with_dag(self, fig2b):
        """Single-sequence case: Algorithm 1's product of the tuples
        along load -> icmp -> br equals the DAG's branch event."""
        module, profile, tuples, propagator = fig2b
        load = _cond_load(module, profile)
        icmp = next(u for u in load.users if u.opcode == "icmp")
        (branch,) = icmp.users
        assert branch.opcode == "br"
        product = 1.0
        for inst, value in ((icmp, load), (branch, icmp)):
            operand_index = next(i for i, operand in enumerate(inst.operands)
                                 if operand is value)
            product *= tuples.tuple_for(inst, operand_index).propagation
        dag_value = next(
            e.probability for e in propagator.propagate(load).events
            if e.kind == EV_BRANCH
        )
        assert product == pytest.approx(dag_value, rel=1e-9)


class TestDagSemantics:
    def test_shared_terminal_counted_once(self):
        """A value reaching one store via several select paths must
        produce a single store event, not one per path."""
        module = Module("m")
        f = FunctionBuilder(module, "main")
        arr = f.array("a", I32, 2)
        v = f.c(1) + 2
        smaller = f.min(v, 100)          # cmp + select on v
        larger = f.max(smaller, 0)       # another cmp + select
        arr[f.c(0)] = larger
        f.out(arr[f.c(0)])
        f.done()
        module.finalize()
        profile, _ = ProfilingInterpreter(module).run()
        config = trident_config()
        propagator = ForwardPropagator(
            module, TupleDeriver(profile, config), config
        )
        add = next(i for i in module.instructions()
                   if isinstance(i, BinOp) and i.op == "add")
        events = propagator.propagate(add).events
        store_events = [e for e in events if e.kind == EV_STORE]
        assert len(store_events) == 1
        assert store_events[0].probability <= 1.0

    def test_probability_monotone_along_chain(self):
        module = Module("m")
        f = FunctionBuilder(module, "main")
        v = f.c(7)
        a = v + 1
        b = a & 0xFF  # masks high bits
        f.out(b)
        f.done()
        module.finalize()
        profile, _ = ProfilingInterpreter(module).run()
        config = trident_config()
        propagator = ForwardPropagator(
            module, TupleDeriver(profile, config), config
        )
        add = next(i for i in module.instructions()
                   if isinstance(i, BinOp) and i.op == "add")
        events = propagator.propagate(add).events
        output_event = next(e for e in events if e.kind == EV_OUTPUT)
        # add -> and 0xFF: 8 of 32 bits survive.
        assert output_event.probability == pytest.approx(8 / 32)

    def test_interprocedural_propagation(self):
        module = Module("m")
        helper = FunctionBuilder(module, "triple", [I32], ["x"], I32)
        helper.ret(helper.arg(0) * 3)
        helper.done()
        f = FunctionBuilder(module, "main")
        v = f.c(4) + 1
        f.out(f.call("triple", [v], I32))
        f.done()
        module.finalize()
        profile, _ = ProfilingInterpreter(module).run()
        config = trident_config()
        propagator = ForwardPropagator(
            module, TupleDeriver(profile, config), config
        )
        add = next(i for i in module.instructions()
                   if isinstance(i, BinOp) and i.op == "add")
        events = propagator.propagate(add).events
        assert any(e.kind == EV_OUTPUT for e in events)

    def test_crash_probability_reported(self, fig2b):
        module, profile, tuples, propagator = fig2b
        load = next(
            inst for inst in module.instructions()
            if isinstance(inst, Load) and profile.count(inst.iid) > 0
        )
        # A value feeding only the comparison has no crash mass; one
        # feeding a memory address would.  Check range validity.
        result = propagator.propagate(load)
        assert 0.0 <= result.crash_probability <= 1.0
