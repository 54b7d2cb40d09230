"""Property-based tests on the core cache machinery."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import CacheConfig, Policy, Scheme
from repro.core.lru import LruList
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.core.selection import efficiency_value, ssd_cache_blocks
from repro.core.ssd_region import BlockRegion, ByteRegion
from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.engine.query import Query

SB = 128 * 1024
KB = 1024


@settings(max_examples=100, deadline=None)
@given(
    si=st.integers(1, 10**9),
    pu=st.floats(0.001, 1.0),
)
def test_formula1_bounds(si, pu):
    """SC blocks always cover si*pu bytes and never exceed it by a block."""
    sc = ssd_cache_blocks(si, pu, SB)
    assert sc >= 1
    assert sc * SB >= si * pu - 1  # covers the target
    assert (sc - 1) * SB < si * pu + 1  # tight: one block fewer is too small


@settings(max_examples=100, deadline=None)
@given(freq=st.integers(0, 10**6), sc=st.integers(1, 10**4))
def test_formula2_monotone(freq, sc):
    ev = efficiency_value(freq, sc)
    assert ev >= 0
    assert efficiency_value(freq + 1, sc) >= ev
    assert efficiency_value(freq, sc + 1) <= ev


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "touch", "pop_lru"]),
                  st.integers(0, 20)),
        max_size=120,
    )
)
def test_lru_list_model(ops):
    """LruList behaves like an ordered-dict reference model."""
    from collections import OrderedDict

    lru = LruList(replace_window=3)
    model: OrderedDict = OrderedDict()
    for op, key in ops:
        if op == "insert":
            lru.insert(key, key * 2)
            model[key] = key * 2
            model.move_to_end(key)
        elif op == "touch":
            if key in model:
                assert lru.touch(key) == model[key]
                model.move_to_end(key)
            else:
                assert lru.get(key) is None
        else:
            if model:
                assert lru.pop_lru() == model.popitem(last=False)
    assert len(lru) == len(model)
    assert lru.keys() == list(model.keys())
    rfr = lru.replace_first_region()
    assert [k for k, _ in rfr] == list(model.keys())[:3]


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 8), min_size=1, max_size=30),
    data=st.data(),
)
def test_block_region_conservation(sizes, data):
    """Allocated + free block counts always equal the region size."""
    region = BlockRegion(0, 24, SB)
    held: list[list[int]] = []
    for size in sizes:
        blocks = region.alloc(size)
        if blocks is None:
            if held:
                victim = data.draw(st.integers(0, len(held) - 1))
                region.free(held.pop(victim))
            continue
        held.append(blocks)
        allocated = sum(len(b) for b in held)
        assert allocated + region.free_count == 24
        # No block handed out twice.
        flat = [b for blocks in held for b in blocks]
        assert len(flat) == len(set(flat))


@settings(max_examples=60, deadline=None)
@given(
    requests=st.lists(st.integers(1, 16 * 512), min_size=1, max_size=40),
    data=st.data(),
)
def test_byte_region_no_overlap(requests, data):
    """Live extents never overlap; free+used sectors conserve."""
    region = ByteRegion(0, 64 * 512)
    held: list[tuple[int, int]] = []  # (lba, nbytes)
    for nbytes in requests:
        lba = region.alloc(nbytes)
        if lba is None:
            if held:
                victim = data.draw(st.integers(0, len(held) - 1))
                old = held.pop(victim)
                region.free(*old)
            continue
        held.append((lba, nbytes))
        # Overlap check over sector spans.
        spans = sorted(
            (start, start + -(-n // 512)) for start, n in held
        )
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2
        used = sum(e - s for s, e in spans)
        assert used + region.free_sectors == 64


# -- invariant-checked replay over the layered cache manager -----------------

@pytest.fixture(scope="module")
def replay_index():
    return InvertedIndex(CorpusConfig(num_docs=2500, vocab_size=50, seed=19))


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    policy=st.sampled_from(list(Policy)),
    scheme=st.sampled_from(list(Scheme)),
    ttl_us=st.sampled_from([0.0, 15_000.0]),
    queries=st.lists(
        st.tuples(
            st.integers(0, 30),                               # query id
            st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True),
        ),
        min_size=1,
        max_size=60,
    ),
)
def test_replay_preserves_invariants_after_every_query(
    replay_index, policy, scheme, ttl_us, queries
):
    """check_invariants() holds after *every* query of a random replay.

    Exercises the decomposed result/list caches and all three built-in
    policies under Hypothesis-generated logs, including the dynamic (TTL)
    scenario, so any accounting drift inside the layers surfaces at the
    exact query that introduced it.
    """
    cfg = CacheConfig(
        mem_result_bytes=60 * KB,
        mem_list_bytes=256 * KB,
        ssd_result_bytes=384 * KB,
        ssd_list_bytes=1024 * KB,
        policy=policy,
        scheme=scheme,
        ttl_us=ttl_us,
    )
    mgr = CacheManager(cfg, build_hierarchy_for(cfg, replay_index), replay_index)
    for qid, terms in queries:
        mgr.process_query(Query(qid, tuple(terms)))
        mgr.check_invariants()
    assert mgr.stats.queries == len(queries)
