"""SSD simulator deep-dive: FTLs, garbage collection and lifetime.

Uses the flash substrate directly (no search engine) to show why the
paper worries about writes: the same logical write stream costs wildly
different erase counts depending on the FTL and on whether writes are
block-aligned (the paper's placement policy) or small and scattered (the
LRU baseline's).  Ends with the lifetime projection the Griffin citation
[3] alludes to.

Run:  python examples/ssd_wearout_study.py
"""

import numpy as np

from repro import FlashConfig, SimulatedSSD
from repro.analysis.tables import format_table

BLOCK = 128 * 1024


def aligned_workload(ssd: SimulatedSSD, writes: int, rng) -> None:
    """128 KB block-aligned overwrites (CBLRU-style placement)."""
    slots = ssd.capacity_bytes // BLOCK - 1
    for _ in range(writes):
        slot = int(rng.integers(0, slots))
        ssd.write(slot * BLOCK // 512, BLOCK)


def scattered_workload(ssd: SimulatedSSD, writes: int, rng) -> None:
    """20 KB writes at arbitrary sector offsets (LRU-style placement),
    same total bytes as the aligned workload."""
    span = ssd.capacity_bytes - BLOCK
    for _ in range(writes * (BLOCK // (20 * 1024))):
        off = int(rng.integers(0, span // 512)) * 512
        ssd.write(off // 512, 20 * 1024)


def main() -> None:
    writes = 600

    print("Placement study (page-mapping FTL, identical bytes written):")
    rows = []
    for name, workload in (("block-aligned", aligned_workload),
                           ("20KB scattered", scattered_workload)):
        ssd = SimulatedSSD(FlashConfig(num_blocks=512, overprovision=0.12))
        workload(ssd, writes, np.random.default_rng(1))
        stats = ssd.ftl.stats
        rows.append([name, ssd.erase_count, stats.write_amplification,
                     ssd.mean_access_time_us / 1000])
    print(format_table(
        ["write pattern", "erases", "write amp", "mean access ms"], rows))

    print("\nFTL study (same mixed workload on every FTL):")
    rows = []
    for ftl in ("page", "dftl", "fast", "block"):
        ssd = SimulatedSSD(FlashConfig(num_blocks=96, overprovision=0.15),
                           ftl=ftl)
        rng = np.random.default_rng(2)
        slots = ssd.capacity_bytes // BLOCK - 1
        for _ in range(400):
            slot = int(rng.integers(0, slots))
            if rng.random() < 0.6:
                ssd.write(slot * BLOCK // 512, BLOCK)
            else:
                ssd.write(slot * BLOCK // 512 + 8, 20 * 1024)
        rows.append([ftl, ssd.erase_count,
                     ssd.ftl.stats.write_amplification,
                     ssd.mean_access_time_us / 1000])
    print(format_table(
        ["FTL", "erases", "write amp", "mean access ms"], rows))

    print("\nLifetime projection (5000-cycle MLC, Intel 320 class):")
    ssd = SimulatedSSD(FlashConfig(num_blocks=256, overprovision=0.12))
    rng = np.random.default_rng(3)
    scattered_workload(ssd, 400, rng)
    report = ssd.wear()
    # Pretend this workload was one day of traffic.
    days_left = report.remaining_lifetime_days(elapsed_days=1.0)
    print(f"  total erases {report.total_erases}, "
          f"hottest block {report.max_erases} cycles, "
          f"wear skew {report.skew:.2f}")
    print(f"  at this rate the drive lasts ~{days_left:.0f} more days — "
          f"the write-reduction motive of Section VI.C")


if __name__ == "__main__":
    main()
