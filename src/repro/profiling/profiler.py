"""Profiling: one instrumented fault-free execution.

The profile runs on the *profile* specialization of the generated code
(:mod:`repro.interp.codegen`): the same generated block functions as
golden runs and campaigns, plus the profiler's bookkeeping, so IR
semantics live only in :mod:`repro.interp.ops` and the codegen
templates.

Collected facts (Sec. IV-A "profiling phase"):

* execution counts of every static instruction (from the dense block
  counters, as :meth:`RunResult.instruction_counts` derives them),
* direction counts of every conditional branch and select,
* a reservoir of operand values per instruction (for the fs tuples),
* P(crash | address-bit flip) samples at loads/stores, computed against
  the live memory validity set (the paper approximates this from the
  program's allocated memory size),
* the pruned memory dependency graph: static store→load edges with
  dynamic dependency counts, plus per-store read fractions.
"""

from __future__ import annotations

import random
import time
from hashlib import blake2b

from ..interp.codegen import MEMORY_ACCESSES, SAMPLED_OPERANDS
from ..interp.engine import ExecutionEngine
from ..ir.instructions import Branch, Select, Store
from ..ir.module import Module
from .profile import MemDepStats, ProgramProfile

#: Domain separation for per-site sampling substreams (<=16 bytes).
_SITE_PERSON = b"repro-prof-site"


def _site_seed(seed: int, function_name: str, local_index: int) -> int:
    """Deterministic sub-seed for one instruction site.

    Sampling used to draw from one shared RNG stream, so inserting an
    instruction *anywhere* perturbed the reservoirs of every later
    instruction in the run.  Keying each site's stream on its
    (function, local position) — never the module-wide iid — makes the
    sampled slices of untouched functions bit-identical across
    transforms, the property function-granular profile digests need.
    Same substream protocol as :mod:`repro.fi.seeds`.
    """
    digest = blake2b(
        f"{seed}:{function_name}:{local_index}".encode(),
        digest_size=8, person=_SITE_PERSON,
    ).digest()
    return int.from_bytes(digest, "big")


class ProfilingInterpreter:
    """Runs a module once and produces a :class:`ProgramProfile`."""

    def __init__(self, module: Module, sample_cap: int = 32,
                 max_dynamic: int = 50_000_000, seed: int = 2018):
        if not module.is_finalized:
            raise ValueError("finalize the module before profiling")
        self.module = module
        self.sample_cap = sample_cap
        self.max_dynamic = max_dynamic
        self.seed = seed
        #: iid -> (function name, function-local index): the stable site
        #: identity each sampling substream is keyed on.
        self.sites: dict[int, tuple[str, int]] = {}
        for function in module.functions.values():
            for local, inst in enumerate(function.instructions()):
                self.sites[inst.iid] = (function.name, local)

    def site_rng(self, iid: int) -> random.Random:
        """This instruction site's private sampling substream."""
        return random.Random(_site_seed(self.seed, *self.sites[iid]))

    def run(self) -> tuple[ProgramProfile, list[str]]:
        """Profile one fault-free execution; returns (profile, outputs).

        ``profiling_seconds`` covers building the engine as well as the
        run: both are the fixed cost Fig. 6/7 weigh against FI.
        """
        started = time.perf_counter()
        # An engine generates code on first use, so this one compiles
        # only the profile variant.
        engine = ExecutionEngine(self.module, max_dynamic=self.max_dynamic)
        result, run = engine.profile(self.sample_cap, self.site_rng)
        counts = result.instruction_counts()
        profile = ProgramProfile(
            inst_counts=counts,
            mem_edges=run.edges,
            store_instances_read=run.read_instances,
            store_reader_sets=run.reader_sets,
            dynamic_count=result.dynamic_count,
            footprint_bytes=result.footprint_bytes,
            memdep_stats=MemDepStats(
                dynamic_dependencies=sum(run.edges.values()),
                static_edges=len(run.edges),
            ),
        )
        for iid, count in counts.items():
            inst = self.module.instruction(iid)
            if isinstance(inst, SAMPLED_OPERANDS):
                profile.operand_samples[iid] = run.samples[iid]
            elif isinstance(inst, MEMORY_ACCESSES):
                profile.crash_prob_samples[iid] = run.samples[iid]
            events = run.events[iid]
            if isinstance(inst, Branch) and inst.is_conditional:
                profile.branch_counts[iid] = [count - events, events]
            elif isinstance(inst, Select):
                profile.select_counts[iid] = [count - events, events]
            elif isinstance(inst, Store):
                profile.store_instances[iid] = count
                if events:
                    profile.silent_stores[iid] = events
        profile.profiling_seconds = time.perf_counter() - started
        return profile, result.outputs
