"""Cache configuration and statistics."""

from dataclasses import fields

import pytest

from repro.core.config import CacheConfig, Policy, Scheme
from repro.core.stats import CacheStats, Situation
from repro.workloads.retrieval import prepare_cached_manager, run_cached
from repro.workloads.sweep import make_log_for, make_scaled_index

MB = 1024 * 1024


# -- config ---------------------------------------------------------------

def test_defaults_match_paper_constants():
    cfg = CacheConfig()
    assert cfg.block_bytes == 128 * 1024          # SB
    assert cfg.result_entry_bytes == 20 * 1024    # ~20 KB result entry
    assert cfg.top_k == 50                        # K
    assert cfg.replace_window == 5                # W
    assert cfg.entries_per_rb == 6                # floor(128/20)


def test_validation():
    with pytest.raises(ValueError):
        CacheConfig(mem_result_bytes=-1)
    with pytest.raises(ValueError):
        CacheConfig(result_entry_bytes=256 * 1024)  # > block
    with pytest.raises(ValueError):
        CacheConfig(replace_window=0)
    with pytest.raises(ValueError):
        CacheConfig(static_fraction=1.0)
    with pytest.raises(ValueError):
        CacheConfig(tev=-0.5)


def test_derived_block_counts():
    cfg = CacheConfig(ssd_result_bytes=10 * MB, ssd_list_bytes=100 * MB)
    assert cfg.ssd_result_blocks == 80
    assert cfg.ssd_list_blocks == 800
    assert cfg.ssd_cache_bytes == 110 * MB
    assert cfg.uses_ssd


def test_paper_split_proportions():
    cfg = CacheConfig.paper_split(mem_bytes=10 * MB, ssd_bytes=100 * MB)
    assert cfg.mem_result_bytes == 2 * MB           # 20%
    assert cfg.mem_list_bytes == 8 * MB             # 80%
    assert cfg.ssd_result_bytes == 20 * MB          # 10x mem RC
    assert cfg.ssd_list_bytes == 80 * MB
    # Fig. 16's caps: SSD RC never exceeds 10x memory RC.
    big = CacheConfig.paper_split(mem_bytes=1 * MB, ssd_bytes=1000 * MB)
    assert big.ssd_result_bytes == 10 * big.mem_result_bytes


def test_paper_split_memory_only():
    cfg = CacheConfig.paper_split(mem_bytes=10 * MB)
    assert not cfg.uses_ssd


def test_one_level_strips_ssd():
    cfg = CacheConfig.paper_split(mem_bytes=10 * MB, ssd_bytes=100 * MB,
                                  policy=Policy.CBLRU, scheme=Scheme.EXCLUSIVE,
                                  replace_window=7, static_fraction=0.25,
                                  write_buffer_entries=3, ttl_us=5000.0)
    one = cfg.one_level()
    assert not one.uses_ssd
    assert one.ssd_result_bytes == one.ssd_list_bytes == 0
    # Every other field is kept: a dynamic-scenario (TTL) 1LC baseline
    # stays dynamic.
    for f in fields(CacheConfig):
        if f.name not in ("ssd_result_bytes", "ssd_list_bytes"):
            assert getattr(one, f.name) == getattr(cfg, f.name), f.name
    assert one.ttl_us == 5000.0


def test_policy_and_scheme_names_coerce_to_members():
    cfg = CacheConfig(policy="cbslru", scheme="exclusive")
    assert cfg.policy is Policy.CBSLRU
    assert cfg.scheme is Scheme.EXCLUSIVE
    assert cfg == CacheConfig(policy=Policy.CBSLRU, scheme=Scheme.EXCLUSIVE)


def test_unknown_policy_or_scheme_lists_the_choices():
    with pytest.raises(ValueError, match="unknown policy 'fifo'; "
                                         "choose from lru, cblru, cbslru"):
        CacheConfig(policy="fifo")
    with pytest.raises(ValueError, match="unknown scheme 'both'; "
                                         "choose from inclusive, exclusive, hybrid"):
        CacheConfig(scheme="both")


@pytest.fixture(scope="module")
def scaled():
    """One small paper-scale index and log: 2 MB memory, 8 MB SSD."""
    index, log = make_scaled_index(100_000), make_log_for(600, seed=3)

    def build(**overrides):
        """A manager built (and CBSLRU-warmed) the way ``run_cached`` does."""
        cfg = CacheConfig.paper_split(mem_bytes=2 * MB, ssd_bytes=8 * MB,
                                      **overrides)
        return prepare_cached_manager(index, log, cfg)

    def mean_ms(mgr):
        return run_cached(index, log, mgr.config, manager=mgr).mean_response_ms

    return build, mean_ms


def test_string_policy_provisions_the_static_partition(scaled):
    build, mean_ms = scaled
    by_name, by_enum = build(policy="cbslru"), build(policy=Policy.CBSLRU)
    assert len(by_name.result_cache.static) == len(by_enum.result_cache.static) > 0
    assert mean_ms(by_name) == mean_ms(by_enum)


def test_string_scheme_runs_that_scheme(scaled):
    build, mean_ms = scaled
    by_name = mean_ms(build(policy=Policy.CBLRU, scheme="exclusive"))
    by_enum = mean_ms(build(policy=Policy.CBLRU, scheme=Scheme.EXCLUSIVE))
    hybrid = mean_ms(build(policy=Policy.CBLRU, scheme=Scheme.HYBRID))
    assert by_name == by_enum != hybrid


def test_write_buffer_entries_override():
    cfg = CacheConfig(write_buffer_entries=4)
    assert cfg.entries_per_rb == 4


# -- situations ----------------------------------------------------------------

def test_situation_classification_all_combinations():
    assert Situation.for_lists(True, False, False) is Situation.S2
    assert Situation.for_lists(True, True, False) is Situation.S4
    assert Situation.for_lists(False, True, False) is Situation.S5
    assert Situation.for_lists(True, False, True) is Situation.S6
    assert Situation.for_lists(False, True, True) is Situation.S7
    assert Situation.for_lists(False, False, True) is Situation.S8
    assert Situation.for_lists(True, True, True) is Situation.S9


def test_situation_no_source_rejected():
    with pytest.raises(ValueError):
        Situation.for_lists(False, False, False)


# -- stats ----------------------------------------------------------------------

def test_hit_ratios():
    s = CacheStats()
    s.result_l1_hits = 6
    s.result_l2_hits = 2
    s.result_misses = 2
    s.list_l1_hits = 3
    s.list_l2_hits = 1
    s.list_partial_hits = 2
    s.list_misses = 4
    assert s.result_hit_ratio == pytest.approx(0.8)
    assert s.list_hit_ratio == pytest.approx(0.4)
    assert s.combined_hit_ratio == pytest.approx(12 / 20)


def test_empty_stats_are_zero():
    s = CacheStats()
    assert s.result_hit_ratio == 0.0
    assert s.list_hit_ratio == 0.0
    assert s.mean_response_us == 0.0
    assert s.throughput_qps == 0.0


def test_record_query_accumulates():
    s = CacheStats()
    s.record_query(Situation.S1, 1000.0)
    s.record_query(Situation.S8, 3000.0)
    assert s.queries == 2
    assert s.mean_response_us == pytest.approx(2000.0)
    assert s.throughput_qps == pytest.approx(2 / (4000.0 / 1e6))
    assert s.situation_counts[Situation.S1] == 1


def test_situation_table_rows():
    s = CacheStats()
    s.record_query(Situation.S1, 2000.0)
    s.record_query(Situation.S1, 4000.0)
    rows = s.situation_table()
    assert len(rows) == 9
    name, prob, mean_ms = rows[0]
    assert name == "S1"
    assert prob == pytest.approx(1.0)
    assert mean_ms == pytest.approx(3.0)


def test_reset():
    s = CacheStats()
    s.record_query(Situation.S1, 1.0)
    s.reset()
    assert s.queries == 0
    assert s.situation_counts[Situation.S1] == 0
