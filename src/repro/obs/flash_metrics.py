"""Flash-device telemetry: FTL and wear counters bridged into a registry.

The flash layer already counts everything Fig. 19a's lifetime argument
needs — per-block erases, GC copy-backs, write amplification, the
:class:`~repro.flash.wear.WearReport` projections — but those counters
lived on the devices.  :class:`FlashDeviceMetrics` samples them into the
shared :class:`~repro.obs.registry.MetricsRegistry` as instruments
tagged ``device=<name>``:

========================================= ======= ===========================
metric                                    kind    source
========================================= ======= ===========================
``flash_erases_total``                    counter ``FtlStats.block_erases``
``flash_host_page_reads_total``           counter ``FtlStats.host_page_reads``
``flash_host_page_writes_total``          counter ``FtlStats.host_page_writes``
``flash_gc_page_reads_total``             counter ``FtlStats.gc_page_reads``
``flash_gc_page_writes_total``            counter ``FtlStats.gc_page_writes``
``flash_translation_page_writes_total``   counter ``FtlStats`` (DFTL)
``flash_trimmed_pages_total``             counter ``FtlStats.trimmed_pages``
``flash_full_merges_total``               counter ``FtlStats.full_merges``
``flash_write_amplification``             gauge   ``FtlStats.write_amplification``
``flash_free_blocks``                     gauge   free-block pool depth
``flash_wear_max_erases``                 gauge   ``WearReport.max_erases``
``flash_wear_skew``                       gauge   ``WearReport.skew``
``flash_lifetime_consumed``               gauge   ``WearReport.lifetime_consumed``
========================================= ======= ===========================

Counters are advanced by *delta* on every :meth:`collect`, so sampling
any number of times still yields cumulative totals and cluster merges
sum correctly across shards.
"""

from __future__ import annotations

from repro.flash.wear import wear_projection
from repro.obs.registry import MetricsRegistry, delta_counter

__all__ = ["FlashDeviceMetrics"]

#: FtlStats attribute -> counter name.
_COUNTER_FIELDS = {
    "block_erases": "flash_erases_total",
    "host_page_reads": "flash_host_page_reads_total",
    "host_page_writes": "flash_host_page_writes_total",
    "gc_page_reads": "flash_gc_page_reads_total",
    "gc_page_writes": "flash_gc_page_writes_total",
    "translation_page_reads": "flash_translation_page_reads_total",
    "translation_page_writes": "flash_translation_page_writes_total",
    "trimmed_pages": "flash_trimmed_pages_total",
    "full_merges": "flash_full_merges_total",
}


class FlashDeviceMetrics:
    """Samples one :class:`~repro.flash.ssd.SimulatedSSD` into a registry.

    Purely observational: reading the counters never touches the device
    clock or NAND state, so attaching the bridge cannot perturb a run.
    """

    def __init__(self, registry: MetricsRegistry, ssd,
                 endurance_cycles: int = 5000) -> None:
        self.registry = registry
        self.ssd = ssd
        self.endurance_cycles = endurance_cycles
        self._counters = [
            (fld, delta_counter(registry, metric, device=ssd.name))
            for fld, metric in _COUNTER_FIELDS.items()]
        # Gauge refs, cached because collect() runs per timeline window.
        self._gauges: dict[str, object] = {}
        # nand.erases at the last wear sample: -1 forces the first
        # collect() to publish the wear gauges even on a pristine device.
        self._wear_erases = -1

    def _gauge(self, name: str, merge_mode: str | None = None):
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = self.registry.gauge(
                name, merge_mode=merge_mode, device=self.ssd.name)
        return g

    def collect(self) -> None:
        """Sample the device's current counters into the registry."""
        stats = self.ssd.ftl.stats
        for fld, advance in self._counters:
            advance(getattr(stats, fld, 0))
        # Ratio/projection gauges have no natural cross-shard sum, so
        # they declare their cluster-merge mode; free_blocks is
        # occupancy-style and keeps the "sum" default.
        self._gauge("flash_write_amplification", "last").set(
            stats.write_amplification)
        self._gauge("flash_free_blocks").set(self.ssd.ftl.free_block_count)
        # Wear projections (Fig. 19a / Griffin [3] lifetime argument):
        # WearReport's max / skew / lifetime, a function of erase_counts.
        # No erase since the last sample skips them; otherwise one
        # reduction — the mean comes from NandArray's running total.
        nand = self.ssd.ftl.nand
        if nand.erase_counts.size and nand.erases != self._wear_erases:
            self._wear_erases = nand.erases
            max_erases = int(nand.erase_counts.max())
            skew, consumed = wear_projection(
                max_erases, nand.erases / nand.erase_counts.size,
                self.endurance_cycles)
            self._gauge("flash_wear_max_erases", "max").set(max_erases)
            self._gauge("flash_wear_skew", "last").set(skew)
            self._gauge("flash_lifetime_consumed", "max").set(consumed)
