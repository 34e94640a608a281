"""Content-addressed artifact cache.

The cache never recomputes an artifact whose inputs haven't changed:
everything is keyed on the SHA-256 of the module's canonical printed IR
plus the scalar knobs that influenced the artifact, so "same key" means
"bit-identical result" and a warm run is provably equivalent to a cold
one (locked by the differential tests in ``tests/cache/``).
"""

from .artifacts import (
    GoldenSummary,
    cached_profile,
    campaign_key,
    function_results_key,
    golden_key,
    load_cached_profile,
    load_function_results,
    load_golden_summary,
    profile_key,
    shard_key,
    store_cached_profile,
    store_function_results,
    store_golden_summary,
)
from .disk import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    STORE_COUNTERS,
    ArtifactCache,
    CacheStats,
    FileLock,
    configure_cache,
    get_cache,
    resolve_cache_dir,
)
from .fingerprint import (
    combine_key,
    config_digest,
    function_fingerprint,
    function_fingerprints,
    module_fingerprint,
)

__all__ = [
    "ArtifactCache", "CACHE_DIR_ENV", "CacheStats", "DEFAULT_CACHE_DIR",
    "FileLock", "GoldenSummary", "STORE_COUNTERS", "cached_profile",
    "campaign_key", "combine_key", "config_digest", "configure_cache",
    "function_fingerprint", "function_fingerprints", "function_results_key",
    "get_cache", "golden_key", "load_cached_profile", "load_function_results",
    "load_golden_summary", "module_fingerprint", "profile_key",
    "resolve_cache_dir", "shard_key", "store_cached_profile",
    "store_function_results", "store_golden_summary",
]
