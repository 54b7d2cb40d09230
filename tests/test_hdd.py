"""HDD geometry and device model."""

import pytest

from repro.hdd.disk import SimulatedHDD
from repro.hdd.geometry import DiskGeometry
from repro.sim.clock import VirtualClock


def test_geometry_validation():
    with pytest.raises(ValueError):
        DiskGeometry(capacity_bytes=0)
    with pytest.raises(ValueError):
        DiskGeometry(rpm=0)
    with pytest.raises(ValueError):
        DiskGeometry(track_to_track_seek_ms=5.0, full_stroke_seek_ms=2.0)
    with pytest.raises(ValueError):
        DiskGeometry(sustained_transfer_mb_s=0)


def test_rotation_period_7200rpm():
    geo = DiskGeometry(rpm=7200)
    assert geo.rotation_period_us == pytest.approx(8333.33, rel=1e-3)
    assert geo.mean_rotational_latency_us == pytest.approx(4166.67, rel=1e-3)


def test_seek_time_monotone_in_distance():
    geo = DiskGeometry()
    assert geo.seek_time_us(0) == 0.0
    short = geo.seek_time_us(1000)
    mid = geo.seek_time_us(geo.num_sectors // 4)
    full = geo.seek_time_us(geo.num_sectors)
    assert 0 < short < mid < full
    assert full == pytest.approx(geo.full_stroke_seek_ms * 1000.0)


def test_seek_time_negative_distance_rejected():
    with pytest.raises(ValueError):
        DiskGeometry().seek_time_us(-1)


def test_transfer_time_scales_linearly():
    geo = DiskGeometry(sustained_transfer_mb_s=100.0)
    assert geo.transfer_time_us(100 * 10**6) == pytest.approx(1e6)
    assert geo.transfer_time_us(0) == 0.0


def test_sequential_reads_avoid_seeks():
    hdd = SimulatedHDD()
    hdd.read(1000, 64 * 1024)
    t_seq = hdd.read(1000 + 128, 64 * 1024)  # continues at head position
    # No seek, no rotation: just overhead + transfer.
    expected = (hdd.geometry.controller_overhead_us
                + hdd.geometry.transfer_time_us(64 * 1024))
    assert t_seq == pytest.approx(expected)
    assert hdd.counters.count("seeks") == 1  # only the first request


def test_random_read_pays_seek_and_rotation():
    hdd = SimulatedHDD()
    hdd.read(0, 4096)
    t_far = hdd.read(hdd.num_sectors // 2, 4096)
    assert t_far > hdd.geometry.mean_rotational_latency_us


def test_write_and_read_symmetric_model():
    hdd = SimulatedHDD()
    t_r = hdd.read(10**6, 8192)
    hdd2 = SimulatedHDD()
    t_w = hdd2.write(10**6, 8192)
    assert t_r == pytest.approx(t_w)


def test_trim_is_noop():
    hdd = SimulatedHDD()
    assert hdd.trim(0, 4096) == 0.0


def test_request_validation():
    hdd = SimulatedHDD()
    with pytest.raises(ValueError):
        hdd.read(-1, 10)
    with pytest.raises(ValueError):
        hdd.read(0, 0)
    with pytest.raises(ValueError):
        hdd.read(hdd.num_sectors, 4096)


def test_clock_charging():
    clock = VirtualClock()
    hdd = SimulatedHDD(clock=clock)
    t = hdd.read(10**6, 4096)
    assert clock.now_us == pytest.approx(t)
    assert clock.busy_us("hdd") == pytest.approx(t)


def test_mean_access_time_tracks_requests():
    hdd = SimulatedHDD()
    t1 = hdd.read(10**6, 4096)
    t2 = hdd.read(2 * 10**6, 4096)
    assert hdd.mean_access_time_us == pytest.approx((t1 + t2) / 2)
    hdd.reset_counters()
    assert hdd.mean_access_time_us == 0.0
