"""Trace replay against simulated devices."""

import numpy as np
import pytest

from repro.flash.ssd import SimulatedSSD
from repro.hdd.disk import SimulatedHDD
from repro.storage.device import NullDevice
from repro.trace.record import Trace
from repro.trace.replay import replay_trace


def make_trace(n, span, seed=0, read_fraction=1.0, size=4096):
    rng = np.random.default_rng(seed)
    return Trace(
        rng.integers(0, span, n),
        np.full(n, size),
        rng.random(n) < read_fraction,
        name="synthetic",
    )


def test_replay_accumulates_latency():
    hdd = SimulatedHDD()
    t = make_trace(100, hdd.num_sectors // 2)
    result = replay_trace(t, hdd)
    assert result.num_requests == 100
    assert result.total_time_us > 0
    assert result.total_time_us == pytest.approx(
        result.read_time_us + result.write_time_us
    )
    assert result.mean_latency_us == pytest.approx(result.total_time_us / 100)


def test_replay_throughput():
    result = replay_trace(make_trace(10, 1000), NullDevice())
    assert result.throughput_iops == 0.0  # zero simulated time
    hdd = SimulatedHDD()
    result = replay_trace(make_trace(10, hdd.num_sectors // 2), hdd)
    assert result.throughput_iops > 0


def test_replay_read_write_split():
    hdd = SimulatedHDD()
    t = make_trace(200, hdd.num_sectors // 2, read_fraction=0.5)
    result = replay_trace(t, hdd)
    assert result.read_time_us > 0
    assert result.write_time_us > 0


def test_replay_clips_oversized_lbas(tiny_flash):
    ssd = SimulatedSSD(tiny_flash)
    t = make_trace(20, 10**9, size=2048)  # far beyond SSD capacity
    result = replay_trace(t, ssd)
    assert result.num_requests == 20


def test_replay_strict_capacity_raises(tiny_flash):
    ssd = SimulatedSSD(tiny_flash)
    t = make_trace(20, 10**9, size=2048)
    with pytest.raises(ValueError):
        replay_trace(t, ssd, clip_to_capacity=False)


def test_ssd_replays_random_reads_faster_than_hdd(tiny_flash):
    """The premise of the paper: SSD wins on random reads."""
    ssd = SimulatedSSD(tiny_flash)
    # Pre-fill so reads hit mapped pages.
    for off in range(0, ssd.capacity_bytes // 2, 128 * 1024):
        ssd.write(off // 512, 128 * 1024)
    span = ssd.capacity_bytes // 1024  # sectors in the filled half
    t = make_trace(300, span, seed=2)
    r_ssd = replay_trace(t, ssd)
    r_hdd = replay_trace(t, SimulatedHDD())
    assert r_ssd.read_time_us < r_hdd.read_time_us / 5
