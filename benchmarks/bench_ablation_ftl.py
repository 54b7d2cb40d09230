"""Ablation A1: FTL choice under the cache workload.

The paper takes the ideal page-mapping FTL [6] as its baseline and
surveys block-mapped [7], log-hybrid (FAST) [8][9] and DFTL [10]
alternatives in Section II.  This bench runs the same cache-block write
pattern against all four and shows why page mapping is the right
baseline — and how badly block mapping suffers under the cache's
overwrite traffic.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.flash.constants import FlashConfig
from repro.flash.ssd import SimulatedSSD

BLOCK = 128 * 1024


def _cache_like_workload(ssd: SimulatedSSD, seed: int = 0, ops: int = 300):
    """Mimic the L2 cache's traffic: block-aligned list writes, small
    result-entry writes, and random read-backs."""
    rng = np.random.default_rng(seed)
    cap = ssd.capacity_bytes
    n_slots = cap // BLOCK - 1
    for _ in range(ops):
        kind = rng.random()
        slot = int(rng.integers(0, n_slots))
        if kind < 0.45:    # block-aligned cache write (CB placement)
            ssd.write(slot * BLOCK // 512, BLOCK)
        elif kind < 0.65:  # small unaligned result write (LRU placement)
            off = slot * BLOCK + int(rng.integers(0, 64)) * 512
            ssd.write(off // 512, 20 * 1024)
        else:              # read-back
            ssd.read(slot * BLOCK // 512, 64 * 1024)


def _run():
    rows = []
    for ftl_name in ("page", "dftl", "fast", "block"):
        cfg = FlashConfig(num_blocks=256, overprovision=0.12)
        ssd = SimulatedSSD(cfg, ftl=ftl_name)
        _cache_like_workload(ssd)
        stats = ssd.ftl.stats
        rows.append({
            "ftl": ftl_name,
            "erases": ssd.erase_count,
            "wa": stats.write_amplification,
            "mean_us": ssd.mean_access_time_us,
        })
    return rows


def test_ablation_ftl_choice():
    rows = _run()
    print()
    print(format_table(
        ["FTL", "erases", "write amplification", "mean access us"],
        [[r["ftl"], r["erases"], r["wa"], r["mean_us"]] for r in rows],
        title="Ablation A1 — FTL comparison under cache traffic "
              "(paper baseline: ideal page-mapping [6])",
    ))
    by = {r["ftl"]: r for r in rows}
    # Page mapping is the cheapest (the paper's 'ideal' baseline).
    assert by["page"]["erases"] <= by["fast"]["erases"]
    assert by["fast"]["erases"] <= by["block"]["erases"]
    # DFTL pays translation overhead over pure page mapping.
    assert by["dftl"]["mean_us"] >= by["page"]["mean_us"]
    # Block mapping collapses under random overwrites.
    assert by["block"]["wa"] > 2 * by["page"]["wa"]
