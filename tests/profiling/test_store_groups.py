"""StoreGroups: a profile's store statistics grouped by store once."""

import copy

import pytest

from repro.bench import BENCHMARK_NAMES
from repro.core import Trident
from repro.profiling import ProgramProfile, profile_to_dict
from repro.profiling.profile import StoreGroups
from tests.conftest import cached_module, cached_profile


def scanned_loads_reading(profile, store_iid):
    """The per-call scan of the whole profile that StoreGroups replaces."""
    total = profile.store_instances.get(store_iid, 0)
    if total == 0:
        return []
    return [(load_iid, min(1.0, count / total))
            for (s_iid, load_iid), count in profile.mem_edges.items()
            if s_iid == store_iid]


def scanned_distribution(profile, store_iid):
    total = profile.store_instances.get(store_iid, 0)
    if total == 0:
        return []
    out = [(readers, count / total)
           for (s_iid, readers), count in profile.store_reader_sets.items()
           if s_iid == store_iid]
    seen = sum(count for (s_iid, _), count in profile.store_reader_sets.items()
               if s_iid == store_iid)
    if seen < total:
        out.append((frozenset(), (total - seen) / total))
    return out


def assert_groups_match(profile: ProgramProfile) -> None:
    groups = StoreGroups(profile)
    stores = ({store for store, _ in profile.mem_edges}
              | {store for store, _ in profile.store_reader_sets}
              | set(profile.store_instances) | {-1})
    for store in stores:
        want_edges = scanned_loads_reading(profile, store)
        want_sets = scanned_distribution(profile, store)
        assert groups.loads_reading(store) == want_edges
        assert profile.loads_reading(store) == want_edges
        assert groups.reader_set_distribution(store) == want_sets
        assert profile.reader_set_distribution(store) == want_sets


def test_profile_built_field_by_field():
    profile = ProgramProfile()
    profile.store_instances[1] = 10
    profile.store_instances[2] = 4
    profile.store_instances[3] = 0
    # Interleaved stores: each group keeps the profile's insertion order.
    profile.mem_edges[(1, 7)] = 6
    profile.mem_edges[(2, 7)] = 4
    profile.mem_edges[(1, 5)] = 12
    profile.mem_edges[(3, 5)] = 1
    profile.store_reader_sets[(1, frozenset({7}))] = 3
    profile.store_reader_sets[(2, frozenset({7}))] = 4
    profile.store_reader_sets[(1, frozenset({5, 7}))] = 5
    groups = StoreGroups(profile)
    assert groups.loads_reading(1) == [(7, 0.6), (5, 1.0)]
    assert groups.reader_set_distribution(1) == [
        (frozenset({7}), 0.3), (frozenset({5, 7}), 0.5),
        (frozenset(), pytest.approx(0.2)),
    ]
    assert groups.reader_set_distribution(2) == [(frozenset({7}), 1.0)]
    assert groups.loads_reading(3) == []
    assert_groups_match(profile)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_profiles(name):
    assert_groups_match(cached_profile(name)[0])


def test_model_adds_nothing_to_the_profile():
    module = cached_module("bfs_rodinia")
    profile, _ = cached_profile("bfs_rodinia")
    before = copy.deepcopy(profile)
    Trident(module, profile, shared_queries=False).overall_sdc(samples=200)
    assert profile == before
    assert profile_to_dict(profile) == profile_to_dict(before)
