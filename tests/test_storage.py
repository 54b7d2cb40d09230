"""Device protocol, DRAM model, and hierarchy assembly."""

import pytest

from repro.flash.constants import FlashConfig
from repro.flash.ssd import SimulatedSSD
from repro.hdd.disk import SimulatedHDD
from repro.sim.clock import VirtualClock
from repro.sim.kernel import Kernel
from repro.storage import device
from repro.storage.device import BlockDevice, DramModel, NullDevice
from repro.storage.hierarchy import HierarchyConfig, StorageHierarchy


def test_devices_satisfy_protocol(tiny_flash):
    assert isinstance(DramModel(), BlockDevice)
    assert isinstance(NullDevice(), BlockDevice)
    assert isinstance(SimulatedSSD(tiny_flash), BlockDevice)
    assert isinstance(SimulatedHDD(), BlockDevice)


def test_dram_cost_model(monkeypatch):
    monkeypatch.setattr(device, "ACCESS_OVERHEAD_US", 0.5)
    monkeypatch.setattr(device, "BANDWIDTH_GB_S", 10.0)
    clock = VirtualClock()
    dram = DramModel(clock=clock)
    t = dram.read(0, 10_000_000)  # 10 MB at 10 GB/s = 1000 us + overhead
    assert t == pytest.approx(0.5 + 1000.0)
    assert clock.now_us == pytest.approx(t)


def test_dram_validation():
    with pytest.raises(ValueError):
        DramModel(capacity_bytes=0)
    with pytest.raises(ValueError):
        DramModel().read(0, -1)


def test_dram_is_much_faster_than_ssd(tiny_flash):
    dram = DramModel()
    ssd = SimulatedSSD(tiny_flash)
    ssd.write(0, 128 * 1024)
    assert dram.read(0, 128 * 1024) < ssd.read(0, 128 * 1024) / 10


def test_null_device_counts():
    dev = NullDevice()
    assert dev.read(0, 100) == 0.0
    assert dev.write(0, 100) == 0.0
    assert dev.trim(0, 100) == 0.0
    assert dev.counters.count("read_ops") == 1


def test_hierarchy_two_level_default():
    h = StorageHierarchy()
    assert h.levels == 2
    assert h.describe() == "2LC-HDD"
    assert h.memory.clock is h.clock
    assert h.ssd.clock is h.clock


def test_hierarchy_one_level():
    h = StorageHierarchy(HierarchyConfig(ssd_cache=False))
    assert h.levels == 1
    assert h.ssd is None
    assert h.describe() == "1LC-HDD"


def test_hierarchy_index_on_ssd():
    cfg = HierarchyConfig(index_on="ssd", ssd_config=FlashConfig(num_blocks=32))
    h = StorageHierarchy(cfg)
    assert h.describe() == "2LC-SSD"
    assert isinstance(h.index_store, SimulatedSSD)


def test_hierarchy_validation():
    with pytest.raises(ValueError):
        HierarchyConfig(index_on="tape")
    with pytest.raises(ValueError):
        HierarchyConfig(memory_bytes=0)


@pytest.mark.parametrize("cpu_lanes", [0, -3])
def test_attach_kernel_rejects_fewer_than_one_cpu_lane(cpu_lanes):
    h = StorageHierarchy()
    with pytest.raises(ValueError, match="lane"):
        h.attach_kernel(Kernel(h.clock), cpu_lanes=cpu_lanes)


def test_busy_breakdown_accumulates():
    h = StorageHierarchy(HierarchyConfig(ssd_config=FlashConfig(num_blocks=32)))
    h.ssd.write(0, 4096)
    h.index_store.read(0, 4096)
    h.memory.read(0, 4096)
    busy = h.busy_breakdown_us()
    assert set(busy) == {"ssd-cache", "index-hdd", "dram"}
    assert all(v > 0 for v in busy.values())
