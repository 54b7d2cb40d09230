"""Device-level trace capture (the paper's 'DiskMon inside the SSD')."""

import pytest

from repro.core.config import CacheConfig, Policy
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.engine.query import Query
from repro.flash.ssd import SimulatedSSD
from repro.storage.device import NullDevice
from repro.trace.analyzer import analyze_trace
from repro.trace.capture import TracingDevice


def test_capture_records_reads_and_writes():
    traced = TracingDevice(NullDevice())
    traced.write(0, 4096)
    traced.read(8, 2048)
    traced.trim(0, 4096)  # trims are not captured
    trace = traced.trace()
    assert len(trace) == 2
    assert not trace[0].is_read and trace[1].is_read
    assert trace[0].nbytes == 4096


def test_capture_filters():
    writes_only = TracingDevice(NullDevice(), capture_reads=False)
    writes_only.read(0, 512)
    writes_only.write(0, 512)
    assert len(writes_only) == 1
    reads_only = TracingDevice(NullDevice(), capture_writes=False)
    reads_only.read(0, 512)
    reads_only.write(0, 512)
    assert reads_only.trace()[0].is_read


def test_capture_timestamps_follow_device_clock(tiny_flash):
    ssd = SimulatedSSD(tiny_flash)
    traced = TracingDevice(ssd)
    traced.write(0, 128 * 1024)
    traced.write(256, 128 * 1024)
    trace = traced.trace()
    assert trace.timestamps_s[1] > trace.timestamps_s[0]


def test_capture_passthrough_semantics(tiny_flash):
    ssd = SimulatedSSD(tiny_flash)
    traced = TracingDevice(ssd)
    latency = traced.write(0, 4096)
    assert latency > 0
    assert traced.capacity_bytes == ssd.capacity_bytes
    assert ssd.ftl.stats.host_page_writes == 2
    assert traced.counters.count("write_ops") == 1
    with pytest.raises(ValueError):
        traced.read(-1, 10)


def test_capture_clear():
    traced = TracingDevice(NullDevice())
    traced.write(0, 512)
    traced.clear()
    assert len(traced) == 0


def test_cache_manager_runs_on_traced_ssd():
    """Wrap the L2 SSD with a tracer and analyze the policy's write
    stream — the Section VII.D methodology."""
    index = InvertedIndex(CorpusConfig(num_docs=4000, vocab_size=80, seed=13))
    results = {}
    for policy in (Policy.LRU, Policy.CBLRU):
        cfg = CacheConfig(
            mem_result_bytes=100 * 1024, mem_list_bytes=384 * 1024,
            ssd_result_bytes=512 * 1024, ssd_list_bytes=2048 * 1024,
            policy=policy,
        )
        hierarchy = build_hierarchy_for(cfg, index)
        traced = TracingDevice(hierarchy.ssd, capture_reads=False)
        hierarchy.ssd = traced
        mgr = CacheManager(cfg, hierarchy, index)
        for i in range(250):
            mgr.process_query(Query(i % 60, (1 + i % 30, 31 + i % 25)))
        results[policy] = analyze_trace(traced.trace(),
                                        skip_window_sectors=10**9)
    lru, cblru = results[Policy.LRU], results[Policy.CBLRU]
    # The baseline's writes are smaller and more scattered; the cost-based
    # policy writes fewer, larger, block-aligned requests.
    assert cblru.mean_request_bytes > lru.mean_request_bytes
    assert cblru.num_requests < lru.num_requests
