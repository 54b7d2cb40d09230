"""Extension E3: static wear leveling under cache traffic.

The paper measures total erase counts but not their *distribution*; a
cache workload concentrates erasures (hot result blocks churn, cold
static data never moves), which is what actually kills drives.  This
bench runs the same cache-like traffic on the plain page-mapping FTL and
on the wear-levelling variant and compares wear skew and projected
lifetime.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.flash.constants import FlashConfig
from repro.flash.ftl_page import PageMappingFTL
from repro.flash.ssd import SimulatedSSD
from repro.flash.wearlevel import WearLevelingFTL

BLOCK = 128 * 1024


def _cache_traffic(ssd: SimulatedSSD, ops: int, seed: int) -> None:
    """Hot/cold cache pattern: a cold static region written once, a hot
    dynamic region overwritten continuously."""
    rng = np.random.default_rng(seed)
    slots = ssd.capacity_bytes // BLOCK
    cold = int(slots * 0.6)
    for slot in range(slots - 1):  # initial fill (static + dynamic)
        ssd.write(slot * BLOCK // 512, BLOCK)
    for _ in range(ops):
        slot = cold + int(rng.integers(0, slots - cold - 1))
        ssd.write(slot * BLOCK // 512, BLOCK)


def _run():
    cfg = FlashConfig(num_blocks=512, overprovision=0.12)
    plain = SimulatedSSD(cfg, ftl=PageMappingFTL(cfg))
    level = SimulatedSSD(cfg, ftl=WearLevelingFTL(cfg))
    _cache_traffic(plain, ops=3_000, seed=5)
    _cache_traffic(level, ops=3_000, seed=5)
    return plain, level


def test_ext_wear_leveling():
    plain, level = _run()
    rows = []
    for label, ssd in (("greedy GC only", plain), ("+ static wear leveling", level)):
        report = ssd.wear()
        rows.append([
            label,
            report.total_erases,
            report.max_erases,
            round(report.skew, 2),
            f"{report.lifetime_consumed:.2%}",
        ])
    print()
    print(format_table(
        ["FTL", "total erases", "max/block", "skew", "endurance used"],
        rows,
        title="Extension E3 — wear distribution under hot/cold cache traffic",
    ))
    migrations = level.ftl.migrations  # type: ignore[attr-defined]
    print(f"wear-leveling migrations: {migrations}")

    rp = plain.wear()
    rl = level.wear()
    # Leveling flattens wear (lower skew, lower per-block maximum)...
    assert rl.skew < rp.skew
    assert rl.max_erases <= rp.max_erases
    # ...at a bounded total-erase overhead.
    assert rl.total_erases < rp.total_erases * 3
