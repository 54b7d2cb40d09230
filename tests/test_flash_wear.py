"""Wear reports and lifetime projection."""

import numpy as np
import pytest

import repro.flash.ssd as ssd_module
import repro.obs.flash_metrics as flash_metrics
from repro.flash.ssd import SimulatedSSD
from repro.flash.wear import wear_projection, wear_report
from repro.obs.flash_metrics import FlashDeviceMetrics
from repro.obs.registry import MetricsRegistry


def test_report_statistics():
    counts = np.array([10, 20, 30, 40])
    report = wear_report(counts, endurance_cycles=100)
    assert report.total_erases == 100
    assert report.max_erases == 40
    assert report.min_erases == 10
    assert report.mean_erases == pytest.approx(25.0)
    assert report.skew == pytest.approx(40 / 25)
    assert report.lifetime_consumed == pytest.approx(0.4)


def test_perfectly_level_wear_has_unit_skew():
    report = wear_report(np.full(8, 7))
    assert report.skew == pytest.approx(1.0)


def test_zero_wear():
    report = wear_report(np.zeros(4, dtype=int))
    assert report.skew == 1.0
    assert report.lifetime_consumed == 0.0
    assert report.remaining_lifetime_days(10.0) == float("inf")


def test_lifetime_projection():
    report = wear_report(np.array([500]), endurance_cycles=1000)
    # Half the endurance consumed in 30 days -> 30 days left.
    assert report.remaining_lifetime_days(30.0) == pytest.approx(30.0)


def test_lifetime_consumed_caps_at_one():
    report = wear_report(np.array([99999]), endurance_cycles=100)
    assert report.lifetime_consumed == 1.0


def test_validation():
    with pytest.raises(ValueError):
        wear_report(np.array([], dtype=int))
    with pytest.raises(ValueError):
        wear_report(np.array([1]), endurance_cycles=0)
    with pytest.raises(ValueError):
        wear_report(np.array([1])).remaining_lifetime_days(0.0)


def test_wear_projection_is_the_report_s_definition():
    counts = np.array([10, 20, 30, 40])
    report = wear_report(counts, endurance_cycles=100)
    assert wear_projection(40, 25.0, 100) == (
        report.skew, report.lifetime_consumed)
    assert wear_projection(0, 0.0, 100) == (1.0, 0.0)
    with pytest.raises(ValueError):
        wear_projection(1, 1.0, 0)


def test_flash_gauges_publish_the_report_s_wear_figures(tiny_flash,
                                                        monkeypatch):
    # The per-window gauges take the mean from the running erase total,
    # not a reduction; they must equal what ssd.wear() reports, and a bad
    # endurance is the same ValueError, not a ZeroDivisionError.
    ssd = SimulatedSSD(tiny_flash)
    for _ in range(40):
        ssd.write(0, ssd.capacity_bytes // 2)
    assert ssd.erase_count > 0
    registry = MetricsRegistry()
    monkeypatch.setattr(flash_metrics, "DEFAULT_ENDURANCE_CYCLES", 50)
    monkeypatch.setattr(ssd_module, "DEFAULT_ENDURANCE_CYCLES", 50)
    FlashDeviceMetrics(registry, ssd).collect()
    wear = ssd.wear()
    gauges = {name: inst.value for name, _, inst in registry.items()
              if name.startswith(("flash_wear", "flash_lifetime"))}
    assert gauges == {"flash_wear_max_erases": wear.max_erases,
                      "flash_wear_skew": wear.skew,
                      "flash_lifetime_consumed": wear.lifetime_consumed}
    monkeypatch.setattr(flash_metrics, "DEFAULT_ENDURANCE_CYCLES", 0)
    with pytest.raises(ValueError):
        FlashDeviceMetrics(MetricsRegistry(), ssd).collect()
