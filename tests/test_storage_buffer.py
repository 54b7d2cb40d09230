"""Flash-aware buffer management: LRU, CFLRU, LRU-WSR, BPLRU."""

import numpy as np
import pytest

from repro.flash.constants import FlashConfig
from repro.flash.ssd import SimulatedSSD
from repro.storage.buffer import BplruBuffer, BufferPolicy, HostPageBuffer
from repro.storage.device import NullDevice

PAGE = 2048


def make_buffer(policy=BufferPolicy.LRU, capacity=8, device=None):
    return HostPageBuffer(device or NullDevice(), capacity_pages=capacity,
                          page_bytes=PAGE, policy=policy)


def page_lba(i):
    return i * (PAGE // 512)


# -- common write-back cache behaviour --------------------------------------

def test_validation():
    with pytest.raises(ValueError):
        HostPageBuffer(NullDevice(), capacity_pages=0)
    with pytest.raises(ValueError):
        HostPageBuffer(NullDevice(), capacity_pages=4, page_bytes=1000)
    with pytest.raises(ValueError):
        make_buffer().read(-1, 10)


def test_read_miss_then_hit():
    dev = NullDevice()
    buf = make_buffer(device=dev)
    buf.read(0, PAGE)
    assert buf.stats.misses == 1
    assert dev.counters.count("read_ops") == 1
    buf.read(0, PAGE)
    assert buf.stats.hits == 1
    assert dev.counters.count("read_ops") == 1  # served from cache


def test_writes_are_absorbed_until_eviction():
    dev = NullDevice()
    buf = make_buffer(capacity=4, device=dev)
    for i in range(4):
        buf.write(page_lba(i), PAGE)
    assert dev.counters.count("write_ops") == 0
    assert buf.dirty_pages == 4
    buf.write(page_lba(9), PAGE)  # evicts one dirty page
    assert dev.counters.count("write_ops") == 1
    assert buf.stats.writebacks == 1


def test_flush_writes_all_dirty():
    dev = NullDevice()
    buf = make_buffer(capacity=8, device=dev)
    for i in range(5):
        buf.write(page_lba(i), PAGE)
    buf.read(page_lba(7), PAGE)
    buf.flush()
    assert dev.counters.count("write_ops") == 5
    assert buf.dirty_pages == 0


def test_trim_drops_buffered_pages():
    buf = make_buffer(capacity=8)
    buf.write(0, PAGE)
    buf.trim(0, PAGE)
    assert len(buf) == 0


def test_multi_page_requests():
    buf = make_buffer(capacity=8)
    buf.write(0, 3 * PAGE)
    assert len(buf) == 3


# -- CFLRU -----------------------------------------------------------------------

def test_cflru_prefers_clean_victims():
    dev = NullDevice()
    buf = make_buffer(policy=BufferPolicy.CFLRU, capacity=4, device=dev)
    # LRU order will be: clean(0), dirty(1), dirty(2), dirty(3).
    buf.read(page_lba(0), PAGE)
    for i in (1, 2, 3):
        buf.write(page_lba(i), PAGE)
    buf.write(page_lba(9), PAGE)
    # The clean page 0 was sacrificed; no device write happened.
    assert dev.counters.count("write_ops") == 0
    assert buf.stats.evict_clean == 1


def test_cflru_falls_back_to_dirty_lru():
    dev = NullDevice()
    buf = make_buffer(policy=BufferPolicy.CFLRU, capacity=4, device=dev)
    for i in range(4):
        buf.write(page_lba(i), PAGE)  # all dirty
    buf.write(page_lba(9), PAGE)
    assert buf.stats.writebacks == 1


def test_cflru_reduces_writebacks_vs_lru():
    """Mixed read/write traffic: CFLRU must write back less than LRU."""
    rng = np.random.default_rng(4)
    ops = [(int(rng.integers(0, 64)), rng.random() < 0.3) for _ in range(2000)]
    results = {}
    for policy in (BufferPolicy.LRU, BufferPolicy.CFLRU):
        dev = NullDevice()
        buf = make_buffer(policy=policy, capacity=16, device=dev)
        for page, is_write in ops:
            if is_write:
                buf.write(page_lba(page), PAGE)
            else:
                buf.read(page_lba(page), PAGE)
        results[policy] = buf.stats.writebacks
    assert results[BufferPolicy.CFLRU] < results[BufferPolicy.LRU]


# -- LRU-WSR --------------------------------------------------------------------

def test_wsr_gives_dirty_pages_second_chance():
    dev = NullDevice()
    buf = make_buffer(policy=BufferPolicy.LRU_WSR, capacity=3, device=dev)
    buf.write(page_lba(0), PAGE)   # dirty, will be LRU
    buf.read(page_lba(1), PAGE)
    buf.read(page_lba(2), PAGE)
    buf.read(page_lba(3), PAGE)    # eviction: page 0 gets a second chance,
    assert buf.stats.second_chances == 1
    assert dev.counters.count("write_ops") == 0  # clean page 1 evicted instead
    # Page 0 is now cold; next eviction of it flushes.
    buf.read(page_lba(4), PAGE)
    buf.read(page_lba(5), PAGE)
    assert buf.stats.writebacks == 1


def test_wsr_rewrite_clears_cold_flag():
    buf = make_buffer(policy=BufferPolicy.LRU_WSR, capacity=2)
    buf.write(page_lba(0), PAGE)
    buf.read(page_lba(1), PAGE)
    buf.read(page_lba(2), PAGE)   # page 0 second chance
    assert buf.stats.second_chances == 1
    buf.write(page_lba(0), PAGE)  # re-reference: hot again
    buf.read(page_lba(3), PAGE)
    buf.read(page_lba(4), PAGE)
    assert buf.stats.second_chances >= 2  # earned another chance


# -- BPLRU ------------------------------------------------------------------------

@pytest.fixture
def ssd():
    return SimulatedSSD(FlashConfig(num_blocks=64, overprovision=0.15))


def test_bplru_validation(ssd):
    with pytest.raises(ValueError):
        BplruBuffer(ssd, capacity_pages=0)
    buf = BplruBuffer(ssd, capacity_pages=16)
    with pytest.raises(ValueError):
        buf.write(0, 0)


def test_bplru_buffers_until_capacity(ssd):
    buf = BplruBuffer(ssd, capacity_pages=128)
    writes_before = ssd.counters.count("write_ops")
    buf.write(0, 2048)
    buf.write(4096 // 512, 2048)
    assert ssd.counters.count("write_ops") == writes_before
    assert buf.buffered_pages == 2


def test_bplru_flushes_whole_padded_blocks(ssd):
    buf = BplruBuffer(ssd, capacity_pages=64)
    block_bytes = ssd.config.block_bytes
    # Dirty one page in each of 3 different blocks, then overflow.
    for blk in range(3):
        buf.write(blk * block_bytes // 512, 2048)
    buf.flush()
    assert buf.stats.block_flushes == 3
    assert buf.stats.padding_reads == 3 * (ssd.config.pages_per_block - 1)
    # Device saw whole-block writes.
    assert ssd.ftl.stats.host_page_writes == 3 * ssd.config.pages_per_block


def test_bplru_reduces_erases_under_random_small_writes(ssd):
    """The claim of [15]: random small writes become block writes."""
    rng = np.random.default_rng(5)
    raw = SimulatedSSD(FlashConfig(num_blocks=64, overprovision=0.15))
    buffered = BplruBuffer(ssd, capacity_pages=256)
    span = raw.capacity_bytes // 2
    # Pre-fill both so overwrites land on mapped space.
    for off in range(0, span, raw.config.block_bytes):
        raw.write(off // 512, raw.config.block_bytes)
        buffered.write(off // 512, raw.config.block_bytes)
    buffered.flush()
    for _ in range(1500):
        off = (int(rng.integers(0, span - 4096)) // 512) * 512
        raw.write(off // 512, 2048)
        buffered.write(off // 512, 2048)
    buffered.flush()
    # Same logical traffic, far fewer erases through BPLRU (GC copies
    # vanish because whole blocks invalidate together).
    assert ssd.ftl.stats.gc_page_writes < raw.ftl.stats.gc_page_writes / 2


def test_bplru_read_passthrough(ssd):
    buf = BplruBuffer(ssd, capacity_pages=16)
    ssd.write(0, 2048)
    latency = buf.read(0, 2048)
    assert latency > 0
