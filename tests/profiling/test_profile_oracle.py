"""Profiles against a frozen oracle of the tree-walking profiler.

Profiling runs on the codegen tier's profile specialization.  It
replaced a separate tree-walking interpreter, and it must reproduce that
interpreter's profiles exactly: every model result and headline number
is computed from them.  ``profile_oracle.json`` froze the old
profiler's output for

* the 11 benchmarks at ``test`` and ``small`` scale,
* fuzz modules 0-49 (:mod:`repro.ir.fuzz`, optimized and not),
* a recursive module whose call re-enters the calling block, so each
  site must count its own instances in execution order,
* a module that reads one address inside a callee whose stack frame is
  live and again after that frame is released, so a memoized crash
  probability must not outlive the validity set it was computed on.

Each entry is the SHA-256 of the serialized profile without its
wall-clock ``profiling_seconds``, together with the program outputs, as
``sort_keys`` JSON.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.registry import build_module
from repro.ir import I32, FunctionBuilder, Module, pointer_to
from repro.ir.dsl import ArrayView
from repro.ir.fuzz import FuzzCase, build_fuzz_module
from repro.profiling import ProfilingInterpreter, profile_to_dict

ORACLE = json.loads(
    (Path(__file__).parent / "profile_oracle.json").read_text()
)["digests"]


def profile_and_outputs_digest(module) -> str:
    profile, outputs = ProfilingInterpreter(module).run()
    data = profile_to_dict(profile)
    del data["profiling_seconds"]
    text = json.dumps({"outputs": outputs, "profile": data}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def recursive_module() -> Module:
    """``walk(d)`` recurses before sampling, loading and storing in the
    block holding the call; main calls it often enough to fill every
    reservoir."""
    module = Module("recursive")
    walk = FunctionBuilder(module, "walk", arg_types=[pointer_to(I32), I32],
                           arg_names=["cells", "d"], return_type=I32)
    cells = ArrayView(walk, walk.arg(0).value, I32)
    depth = walk.arg(1)
    total = walk.local("total", I32, init=depth)

    def deeper():
        mixed = walk.call("walk", [cells.base, depth - 1], I32) * 3 + depth
        cells[depth] = mixed + cells[depth - 1]
        total.set(walk.select(mixed > 40, mixed - 40, mixed))

    walk.if_(depth > 0, deeper)
    walk.ret(total.get())
    walk.done()

    main = FunctionBuilder(module, "main")
    array = main.array("cells", I32, 8)
    main.for_range(0, 8, lambda i: array.__setitem__(i, i))
    acc = main.local("acc", I32, init=0)
    main.for_range(0, 60, lambda i: acc.set(
        acc.get() + main.call("walk", [array.base, main.c(6)], I32) + i
    ))
    main.out(acc.get())
    main.done()
    return module.finalize()


def freed_frame_module() -> Module:
    """``peek`` reads main's ``cells[0]`` while its own stack array is
    live — a single-bit flip of that address lands in the array — and
    main reads the same address again after ``peek`` returns."""
    module = Module("freed_frame")
    peek = FunctionBuilder(module, "peek", arg_types=[pointer_to(I32)],
                           arg_names=["cells"], return_type=I32)
    cells = ArrayView(peek, peek.arg(0).value, I32)
    scratch = peek.array("scratch", I32, 8)
    scratch[0] = cells[0] + 1
    peek.ret(scratch[0])
    peek.done()

    main = FunctionBuilder(module, "main")
    array = main.array("cells", I32, 4)
    main.for_range(0, 4, lambda i: array.__setitem__(i, i))
    acc = main.local("acc", I32, init=0)
    main.for_range(0, 40, lambda i: acc.set(
        acc.get() + main.call("peek", [array.base], I32) + array[0]
    ))
    main.out(acc.get())
    main.done()
    return module.finalize()


def build_case(case: str):
    if case == "recursive":
        return recursive_module()
    if case == "freed-frame":
        return freed_frame_module()
    if case.startswith("fuzz:"):
        return build_fuzz_module(FuzzCase(int(case.split(":")[1])))
    name, scale = case.split("@")
    return build_module(name, scale)


@pytest.mark.parametrize("case", sorted(ORACLE))
def test_profile_matches_oracle(case):
    assert profile_and_outputs_digest(build_case(case)) == ORACLE[case]


def test_oracle_covers_the_frozen_cases():
    benches = [case for case in ORACLE if "@" in case]
    fuzz = [case for case in ORACLE if case.startswith("fuzz:")]
    assert len(benches) == 22
    assert sorted(fuzz) == sorted(f"fuzz:{seed}" for seed in range(50))
    assert "recursive" in ORACLE
    assert "freed-frame" in ORACLE
