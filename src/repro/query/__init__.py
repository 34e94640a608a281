"""Query-based incremental analysis pipeline.

Every analysis the models consume — CFG analyses, tuple derivation, fs
terminal sequences, fc branch results, the fm store fixed point,
execution weighting, per-instruction SDC and the PVF/ePVF masks — is a
registered *query* (:mod:`repro.query.registry`) computed lazily and
memoized at **function granularity** (:mod:`repro.query.engine`): CFG
analyses per engine, model results in content-addressed stores shared
across engines.  Store keys combine the function's
canonical fingerprint, its profile-slice digest and the projection of
the config fields the query reads; interprocedural entries additionally
record per-entry dependency key maps, revalidated on every read.  After
a transform, only the queries of mutated functions (and of entries that
genuinely depended on them) recompute.
"""

from .engine import (
    CALLGRAPH_DEP,
    MISS,
    QueryEngine,
    QueryStats,
    reset_query_stores,
)
from .keys import (
    LocalIndex,
    callgraph_digest,
    function_input_keys,
    profile_slices,
)
from .registry import QUERIES, QuerySpec, config_projection, query_dag_lines

__all__ = [
    "CALLGRAPH_DEP", "LocalIndex", "MISS", "QUERIES", "QueryEngine",
    "QuerySpec", "QueryStats", "callgraph_digest", "config_projection",
    "function_input_keys", "profile_slices", "query_dag_lines",
    "reset_query_stores",
]
