"""Differential testing: the closure steps and the profiler implement
the same semantics.

Hypothesis generates random programs through the eDSL (arithmetic on
locals, array traffic, branches, loops); a golden run on the reference
engine (per-step closures over :mod:`repro.interp.ops`) and a profiling
run (the generated code's profile variant) are two
independent implementations of IR semantics, and must produce identical
outputs, dynamic instruction counts and per-instruction execution counts
on every one of them.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.interp.engine import ReferenceEngine
from repro.ir import I32, FunctionBuilder, Module
from repro.profiling import ProfilingInterpreter

_INT_OPS = ("add", "sub", "mul", "and", "or", "xor")

_op_strategy = st.tuples(
    st.sampled_from(_INT_OPS),
    st.integers(min_value=0, max_value=3),    # source local a
    st.integers(min_value=0, max_value=3),    # source local b
    st.integers(min_value=0, max_value=3),    # destination local
)

_program_strategy = st.fixed_dictionaries({
    "init": st.lists(
        st.integers(min_value=-1000, max_value=1000),
        min_size=4, max_size=4,
    ),
    "ops": st.lists(_op_strategy, min_size=1, max_size=12),
    "loop_n": st.integers(min_value=0, max_value=6),
    "branch_threshold": st.integers(min_value=-500, max_value=500),
    "array_data": st.lists(
        st.integers(min_value=0, max_value=255), min_size=4, max_size=8,
    ),
})


def build_random_program(spec) -> Module:
    module = Module("generated")
    f = FunctionBuilder(module, "main")
    locals_ = [
        f.local(f"v{i}", I32, init=value)
        for i, value in enumerate(spec["init"])
    ]
    data = spec["array_data"]
    arr = f.global_array("data", I32, len(data), data)

    def apply_ops():
        for op, a, b, dest in spec["ops"]:
            lhs = locals_[a].get()
            rhs = locals_[b].get()
            locals_[dest].set(lhs._binop(op, None, rhs)
                              if op in ("and", "or", "xor")
                              else lhs._binop(op, None, rhs))

    apply_ops()

    # A data-dependent branch.
    f.if_(
        locals_[0].get() > spec["branch_threshold"],
        lambda: locals_[1].set(locals_[1].get() + 1),
        lambda: locals_[2].set(locals_[2].get() - 1),
    )

    # A loop over the array with in-bounds indexing.
    if spec["loop_n"]:
        def body(i):
            index = i % len(data)
            locals_[3].set(locals_[3].get() + arr[index])
        f.for_range(0, spec["loop_n"], body)

    for variable in locals_:
        f.out(variable.get())
    f.done()
    return module.finalize()


@given(_program_strategy)
@settings(max_examples=60, deadline=None)
def test_engine_and_profiler_agree(spec):
    module = build_random_program(spec)
    engine_result = ReferenceEngine(module).golden()
    profile, profiler_outputs = ProfilingInterpreter(module).run()
    assert engine_result.outputs == profiler_outputs
    assert engine_result.dynamic_count == profile.dynamic_count
    assert engine_result.instruction_counts() == profile.inst_counts


@given(_program_strategy, st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_injection_terminates_and_classifies(spec, raw_seed):
    """Any single-bit fault yields exactly one defined outcome."""
    import random

    from repro.fi import OUTCOMES, FaultInjector

    module = build_random_program(spec)
    injector = FaultInjector(module)
    rng = random.Random(raw_seed)
    outcome = injector.run_one(injector.sample_injection(rng))
    assert outcome in OUTCOMES


@given(_program_strategy)
@settings(max_examples=30, deadline=None)
def test_model_probabilities_valid_on_random_programs(spec):
    """TRIDENT stays within [0,1] on arbitrary generated programs."""
    from repro.core import Trident

    module = build_random_program(spec)
    model = Trident.build(module)
    for iid in model.eligible:
        assert 0.0 <= model.instruction_sdc(iid) <= 1.0
    assert 0.0 <= model.overall_sdc(samples=50, seed=0) <= 1.0


@given(_program_strategy)
@settings(max_examples=20, deadline=None)
def test_print_parse_round_trip_random(spec):
    from repro.ir import parse_module, print_module

    module = build_random_program(spec)
    text = print_module(module)
    assert print_module(parse_module(text)) == text
