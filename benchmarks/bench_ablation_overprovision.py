"""Ablation A7: SSD over-provisioning under the cache workload.

Over-provisioning is the hidden cost knob of every SSD cache: spare
blocks absorb garbage collection, so erase counts and access latency fall
as OP grows — but every spare gigabyte is a gigabyte the $1.9/GB budget
bought and cannot cache.  This bench sweeps OP for the same cache traffic
and prints the trade the paper's cost analysis implicitly fixes at the
Intel 320's factory setting.

It also applies the Section VII.D methodology with our TracingDevice:
the device-level write stream of the cost-based policy is measured, not
assumed, to be large and sequential.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.flash.constants import FlashConfig
from repro.flash.ssd import SimulatedSSD
from repro.trace.analyzer import analyze_trace
from repro.trace.capture import TracingDevice

BLOCK = 128 * 1024

OP_SWEEP = [0.05, 0.10, 0.20, 0.30]


def _cache_traffic(dev, ops, seed=8):
    """Mixed cache churn (block-aligned RB flushes + the baseline's 20 KB
    scattered result writes) over a logical space that stays fixed across
    OP settings, so the workload — not the capacity — is constant."""
    rng = np.random.default_rng(seed)
    slots = 300  # ~37.5 MB working set, below every OP's logical capacity
    for slot in range(slots):
        dev.write(slot * BLOCK // 512, BLOCK)
    for _ in range(ops):
        slot = int(rng.integers(0, slots))
        if rng.random() < 0.6:
            dev.write(slot * BLOCK // 512, BLOCK)
        else:
            off = slot * BLOCK + int(rng.integers(0, 64)) * 512
            dev.write(off // 512, 20 * 1024)


def _run():
    rows = []
    for op in OP_SWEEP:
        # Fix *logical* capacity; OP adds physical blocks on top.
        logical_blocks = 340
        num_blocks = int(logical_blocks / (1.0 - op)) + 2
        cfg = FlashConfig(num_blocks=num_blocks, overprovision=op)
        ssd = SimulatedSSD(cfg)
        traced = TracingDevice(ssd, capture_reads=False)
        _cache_traffic(traced, ops=2_000)
        analysis = analyze_trace(traced.trace())
        rows.append({
            "op": op,
            "erases": ssd.erase_count,
            "wa": ssd.ftl.stats.write_amplification,
            "mean_ms": ssd.mean_access_time_us / 1000,
            "mean_req_kb": analysis.mean_request_bytes / 1024,
        })
    return rows


def test_ablation_overprovision():
    rows = _run()
    print()
    print(format_table(
        ["overprovision", "erases", "write amp", "mean access ms",
         "mean write KB"],
        [[f"{r['op']:.0%}", r["erases"], r["wa"], r["mean_ms"],
          r["mean_req_kb"]] for r in rows],
        title="Ablation A7 — over-provisioning vs GC cost (same workload)",
    ))

    # More spare blocks => less write amplification and fewer erases.
    was = [r["wa"] for r in rows]
    assert all(b <= a + 0.02 for a, b in zip(was, was[1:]))
    assert rows[-1]["wa"] < rows[0]["wa"]
    assert rows[-1]["erases"] <= rows[0]["erases"]
    # The captured device stream shows the mixed pattern (between the
    # 20 KB result writes and the 128 KB block flushes).
    assert 20.0 < rows[0]["mean_req_kb"] < 128.0
