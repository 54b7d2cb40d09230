"""Ablation A5: the Section II.C buffer-management schemes.

The paper positions CFLRU [13], LRU-WSR [14] and BPLRU [15] as the
general-purpose flash buffer managers its search-specific policies differ
from.  This bench reproduces each scheme's headline property on the same
traffic: CFLRU and LRU-WSR defer dirty evictions (fewer writebacks than
plain LRU), and BPLRU turns random small writes into block writes (fewer
erasures than writing the SSD directly).
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.flash.constants import FlashConfig
from repro.flash.ssd import SimulatedSSD
from repro.storage.buffer import BplruBuffer, BufferPolicy, HostPageBuffer
from repro.storage.device import NullDevice

PAGE = 2048


def _host_buffer_workload(buf, ops=20_000, span_pages=512, write_frac=0.35, seed=6):
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, span_pages, size=ops)
    writes = rng.random(ops) < write_frac
    for page, is_write in zip(pages, writes):
        lba = int(page) * (PAGE // 512)
        if is_write:
            buf.write(lba, PAGE)
        else:
            buf.read(lba, PAGE)


def _run_host_policies():
    rows = []
    for policy in (BufferPolicy.LRU, BufferPolicy.CFLRU, BufferPolicy.LRU_WSR):
        buf = HostPageBuffer(NullDevice(), capacity_pages=128,
                             page_bytes=PAGE, policy=policy)
        _host_buffer_workload(buf)
        rows.append({
            "policy": policy.value,
            "hit": buf.stats.hit_ratio,
            "writebacks": buf.stats.writebacks,
            "second_chances": buf.stats.second_chances,
        })
    return rows


def _run_bplru():
    cfg = FlashConfig(num_blocks=128, overprovision=0.15)
    raw = SimulatedSSD(cfg)
    buffered_dev = SimulatedSSD(cfg)
    buffered = BplruBuffer(buffered_dev, capacity_pages=512)
    rng = np.random.default_rng(7)
    span = raw.capacity_bytes // 2
    for off in range(0, span, cfg.block_bytes):
        raw.write(off // 512, cfg.block_bytes)
        buffered.write(off // 512, cfg.block_bytes)
    buffered.flush()
    for _ in range(4_000):
        off = (int(rng.integers(0, span - 4096)) // 512) * 512
        raw.write(off // 512, PAGE)
        buffered.write(off // 512, PAGE)
    buffered.flush()
    return raw, buffered_dev, buffered


def test_ablation_buffer_management():
    host_rows = _run_host_policies()
    raw, buffered_dev, buffered = _run_bplru()
    print()
    print(format_table(
        ["policy", "hit %", "writebacks", "second chances"],
        [[r["policy"], r["hit"] * 100, r["writebacks"], r["second_chances"]]
         for r in host_rows],
        title="Ablation A5a — host buffer policies (CFLRU [13], LRU-WSR [14])",
    ))
    print(format_table(
        ["path", "erases", "GC copies", "write amp"],
        [
            ["direct to SSD", raw.erase_count,
             raw.ftl.stats.gc_page_writes, raw.ftl.stats.write_amplification],
            ["through BPLRU", buffered_dev.erase_count,
             buffered_dev.ftl.stats.gc_page_writes,
             buffered_dev.ftl.stats.write_amplification],
        ],
        title="Ablation A5b — BPLRU [15] vs direct random small writes",
    ))

    by = {r["policy"]: r for r in host_rows}
    # The flash-aware policies defer/reduce dirty writebacks vs LRU.
    assert by["cflru"]["writebacks"] < by["lru"]["writebacks"]
    assert by["lru-wsr"]["second_chances"] > 0
    # BPLRU eliminates most GC copy-back.
    assert (buffered_dev.ftl.stats.gc_page_writes
            < raw.ftl.stats.gc_page_writes / 2)
