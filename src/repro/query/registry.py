"""Registry of analysis queries and their dependency DAG.

Each query names one analysis the models consume, declares which other
queries it reads and which inputs its results are a function of:

* ``function`` — the canonical per-function fingerprint (always);
* ``profile``  — the function's profile-slice digest (always);
* ``config``   — the listed config fields only, so e.g. the three
  TRIDENT variants (which differ in ``enable_*`` flags the tuple
  deriver never reads) share one tuple store.

The declared dependency edges document the DAG (and drive ``repro
analyze --explain``).  Validation of *interprocedural* queries does not
rely on them: those stores record, per entry, the concrete input keys
of every function the value was derived from — strictly more precise
than the static edge list.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.controldep import ControlDependence
from ..analysis.dominators import compute_postdominators
from ..analysis.loops import LoopInfo
from ..cache.fingerprint import config_digest


@dataclass(frozen=True)
class QuerySpec:
    """One registered analysis query."""

    name: str
    level: str  # "cfg" or "model"
    deps: tuple[str, ...] = ()
    #: Config fields the result depends on; ("*",) = the whole config.
    config_fields: tuple[str, ...] = ()
    #: May a result depend on other functions than its own?
    interprocedural: bool = False
    #: Does the result read the *memory* profile aspects (store->load
    #: edges, reader sets, read fractions)?  Those can change when only
    #: another function's loads change, so queries that never consult
    #: them key on the local slice digest alone and survive such edits.
    memory: bool = False
    #: Persist per-function result envelopes to the artifact cache?
    persist: bool = False
    description: str = ""


QUERIES: dict[str, QuerySpec] = {}


def register_query(spec: QuerySpec) -> QuerySpec:
    if spec.name in QUERIES:
        raise ValueError(f"duplicate query {spec.name!r}")
    QUERIES[spec.name] = spec
    return spec


#: CFG query name -> builder(function).  CFG results are objects bound
#: to one module's blocks, so each engine memoizes them itself
#: (:meth:`~repro.query.engine.QueryEngine.cfg`) instead of sharing them
#: through the content-addressed stores.
CFG_BUILDERS = {
    "cfg.postdominators": compute_postdominators,
    "cfg.control_dependence": ControlDependence,
    "cfg.loop_info": LoopInfo,
}

for _name, _deps, _desc in (
    ("cfg.postdominators", (), "post-dominator sets per block"),
    ("cfg.control_dependence", ("cfg.postdominators",),
     "branch -> governed blocks (per direction)"),
    ("cfg.loop_info", (),
     "natural loops, back edges, LT branch classification"),
):
    register_query(QuerySpec(_name, "cfg", deps=_deps, description=_desc))

register_query(QuerySpec(
    "model.tuples", "model",
    config_fields=("tuple_samples", "model_minmax_joint",
                   "model_fdiv_masking"),
    description="per-(instruction, operand) propagation tuples (Sec. IV-C)",
))
register_query(QuerySpec(
    "model.fs", "model",
    deps=("model.tuples",),
    config_fields=("epsilon", "tuple_samples", "model_minmax_joint",
                   "model_fdiv_masking"),
    interprocedural=True,
    description="terminal events of forward def-use propagation (fs)",
))
register_query(QuerySpec(
    "model.fs.pvf", "model",
    config_fields=("epsilon", "model_minmax_joint"),
    interprocedural=True,
    description="identity-tuple propagation for the PVF baseline",
))
register_query(QuerySpec(
    "model.fs.epvf", "model",
    deps=("model.tuples",),
    config_fields=("epsilon", "tuple_samples", "model_minmax_joint",
                   "model_fdiv_masking"),
    interprocedural=True,
    description="crash-and-bit-discard propagation for the ePVF baseline",
))
register_query(QuerySpec(
    "model.fc", "model",
    deps=("cfg.control_dependence", "cfg.loop_info"),
    config_fields=("epsilon", "fc_silent_store_discount"),
    description="branch -> corrupted stores with probabilities (fc)",
))
register_query(QuerySpec(
    "model.weighting", "model",
    deps=("cfg.postdominators",),
    interprocedural=True,
    description="divergence weighting P(terminal | origin) (Fig. 4)",
))
register_query(QuerySpec(
    "model.fm", "model",
    deps=("model.fs", "model.fc", "model.weighting"),
    config_fields=("*",),
    interprocedural=True,
    memory=True,
    description="per-store reach fixed point over the memory graph (fm)",
))
register_query(QuerySpec(
    "model.sdc", "model",
    deps=("model.fs", "model.fc", "model.fm", "model.weighting"),
    config_fields=("*",),
    interprocedural=True,
    memory=True,
    persist=True,
    description="per-instruction SDC probability (Algorithm 1)",
))
register_query(QuerySpec(
    "model.pvf", "model",
    deps=("model.fs.pvf",),
    config_fields=("*",),
    interprocedural=True,
    persist=True,
    description="PVF per-instruction vulnerability",
))
register_query(QuerySpec(
    "model.epvf", "model",
    deps=("model.fs.epvf",),
    config_fields=("*",),
    interprocedural=True,
    persist=True,
    description="ePVF per-instruction vulnerability",
))

# A crash prediction is a function of fs's propagation alone, so each fs
# flavor has its own store and reads fs's config fields.
for _flavor in ("", ".pvf", ".epvf"):
    register_query(QuerySpec(
        "model.crash" + _flavor, "model",
        deps=("model.fs" + _flavor,),
        config_fields=QUERIES["model.fs" + _flavor].config_fields,
        interprocedural=True,
        persist=True,
        description="per-instruction crash probability (register data flow)",
    ))


def config_projection(spec: QuerySpec, config) -> str:
    """Digest of exactly the config fields this query reads."""
    if not spec.config_fields:
        return "-"
    if "*" in spec.config_fields:
        return config_digest(config)
    return config_digest(
        {field: getattr(config, field) for field in spec.config_fields}
    )


def query_dag_lines() -> list[str]:
    """The query DAG, one line per query (for ``analyze --explain``)."""
    lines = []
    for name in sorted(QUERIES):
        spec = QUERIES[name]
        inputs = ["function", "profile+memory" if spec.memory else "profile"]
        if spec.config_fields:
            fields = "*" if "*" in spec.config_fields else ",".join(
                spec.config_fields
            )
            inputs.append(f"config[{fields}]")
        deps = ", ".join(spec.deps) if spec.deps else "-"
        flags = []
        if spec.interprocedural:
            flags.append("interprocedural")
        if spec.persist:
            flags.append("persisted")
        suffix = f"  ({'; '.join(flags)})" if flags else ""
        lines.append(
            f"{name:<22} deps: {deps:<47} inputs: {'+'.join(inputs)}{suffix}"
        )
    return lines
