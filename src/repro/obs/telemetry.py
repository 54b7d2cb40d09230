"""The telemetry bundle: one registry + one tracer, attached as a unit.

``Telemetry()`` is what users hand to a :class:`~repro.core.manager.
CacheManager` (or an :class:`~repro.cluster.shard.IndexShard`)::

    tel = Telemetry()
    manager = CacheManager(cfg, hierarchy, index, telemetry=tel)
    ... run queries ...
    write_telemetry_dir(tel, "out/")

``Telemetry(out_dir="out/")`` chooses the directory up front instead:
spans, timeline windows and blame records are then written to
``spans.jsonl``, ``timeline.jsonl`` and ``blame.jsonl`` as they finish,
and :func:`~repro.obs.export.write_telemetry_dir` finalises that
directory and no other.  Without ``out_dir`` they are retained in
bounded rings and written in one go.

The manager binds the tracer to its virtual clock, subscribes the
registry to its :class:`~repro.core.events.CacheEvents` bus, hooks the
hierarchy's devices, and calls :meth:`Telemetry.record_query` after each
query with the per-channel busy-time deltas — which is where the
per-stage latency histograms (``stage_latency_us{stage=l1|l2|hdd|cpu}``)
come from.  Stage durations are exact busy-time attributions, so their
per-query sum equals the query's response time.
"""

from __future__ import annotations

import os
import weakref

from repro.obs.audit import NULL_AUDIT, AuditLog
from repro.obs.cache_metrics import CacheEventMetrics, CacheStatsMetrics
from repro.obs.flash_metrics import FlashDeviceMetrics
from repro.obs.registry import MetricsRegistry, delta_counter
from repro.obs.timeline import ExemplarStore, TimelineRecorder, series_key
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["Telemetry", "stage_of_channel"]

#: Sentinel distinguishing "channel not seen yet" from the legitimate
#: None stage (background channels) in the per-channel stage cache.
_UNRESOLVED = object()
#: ``obs_dropped_total{what=...}``: what the observer itself lost, in the
#: order :meth:`Telemetry.collect` samples it.
_LOSSES = ("spans", "audit_records", "windows", "exemplars", "blame_records")
#: Key of the ``cpu`` residual stage in that cache (no channel is an object).
_CPU = object()


def stage_of_channel(channel: str) -> str | None:
    """Map a clock busy channel to a query stage.

    Background channels (``*-bg``, overlapped GC) are not part of any
    query's response time and map to None.  Cluster shards on a shared
    clock suffix their devices with ``#<shard>`` (``dram#2``); the
    suffix is stripped so every shard's channels land on the same
    stages.
    """
    if channel.endswith("-bg"):
        return None
    base = channel.split("#", 1)[0]
    return {
        "dram": "l1",
        "ssd-cache": "l2",
        "index-hdd": "hdd",
        "index-ssd": "store-ssd",
    }.get(base, base)


class Telemetry:
    """A metrics registry, a span tracer and an audit log travelling together.

    ``trace=False`` keeps the registry (counters, histograms, stage
    breakdown) but records no spans — the cheap mode for long sweeps.
    ``audit=False`` likewise disables the decision log, leaving the
    shared :data:`~repro.obs.audit.NULL_AUDIT` on every decision site.
    ``out_dir`` streams into that directory (see the module docstring).
    """

    def __init__(self, trace: bool = True, audit: bool = True,
                 out_dir=None) -> None:
        self.out_dir = out_dir
        self.registry = MetricsRegistry()
        self.tracer = Tracer() if trace else NULL_TRACER
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            if trace:
                self.tracer._stream_into(os.path.join(out_dir, "spans.jsonl"))
        self.audit = AuditLog() if audit else NULL_AUDIT
        #: the manager's clock, once :meth:`bind_clock` hands it over
        self.clock = None
        self.timeline: TimelineRecorder | None = None
        self.exemplars: ExemplarStore | None = None
        self._bridges: list[CacheEventMetrics] = []
        #: flash / kernel / cache-stats bridges, sampled by collect()
        self._collectors: list = []
        self._occupancy: list = []
        self.blame = None
        #: the armed :class:`~repro.obs.flightrecorder.FlightRecorder`,
        #: if any — flushed by close()/write_telemetry_dir.
        self.flight = None
        # Hot-path instrument caches: record_query runs once per query,
        # so each busy channel's stage histogram (None for background
        # channels) and the per-situation instruments are resolved once
        # instead of going through the registry's (name, tags) lookup.
        self._channel_hists: dict = {}
        self._situation_insts: dict = {}
        self._occupancy_gauges: dict = {}
        self._dropped = [delta_counter(self.registry, "obs_dropped_total",
                                      what=what) for what in _LOSSES]
        self._losses = (0,) * len(_LOSSES)

    def bind_clock(self, clock) -> None:
        """Late-bind the tracer and audit log to a clock (managers own
        their clock)."""
        self.clock = clock
        if isinstance(self.tracer, Tracer) and self.tracer.clock is None:
            self.tracer.clock = clock
        self.audit.bind_clock(clock)
        if self.timeline is not None and self.timeline.clock is None:
            self.timeline.clock = clock

    def attach_timeline(self, window_us: float = 50_000.0) -> TimelineRecorder:
        """Attach a windowed recorder (and tail-exemplar capture).

        ``window_us`` is the fixed window width on the virtual clock.
        With ``out_dir``, each window is written to ``timeline.jsonl``
        the moment it closes.  Call before the run starts; the manager
        ticks the recorder once per query.
        """
        if self.timeline is not None:
            raise RuntimeError("a timeline is already attached")
        self.exemplars = ExemplarStore()
        # re-resolved (and registered for exemplars) on their next query
        self._situation_insts.clear()
        # The telemetry owns its timeline, so the timeline's collect hook
        # reaches back weakly: the pair forms no reference cycle.
        owner = weakref.ref(self)
        self.timeline = TimelineRecorder(
            self.registry, window_us, clock=self.clock,
            collect=lambda: owner().collect(), exemplars=self.exemplars,
        )
        if self.out_dir is not None:
            self.timeline._stream_into(
                os.path.join(self.out_dir, "timeline.jsonl"))
        return self.timeline

    def observe_stats(self, stats) -> CacheStatsMetrics:
        """Register a :class:`~repro.core.stats.CacheStats` for windowed
        hit/lookup counters (collected with the other bridges)."""
        bridge = CacheStatsMetrics(self.registry, stats)
        self._collectors.append(bridge)
        return bridge

    def observe_occupancy(self, fn) -> None:
        """Register an occupancy callable (the manager registers one over
        its caches) whose entry/byte counts become sum-merged gauges per
        collect."""
        self._occupancy.append(fn)

    def observe_cache_events(self, events) -> CacheEventMetrics:
        """Subscribe the registry (and the audit timeline) to a
        cache-event bus: one observer per hook bumps the counter, then
        mirrors the event into the audit trail."""
        bridge = CacheEventMetrics(
            self.registry, events,
            audit=self.audit if self.audit.enabled else None)
        self._bridges.append(bridge)
        return bridge

    def observe_kernel(self, kernel, admission=None):
        """Register a concurrency kernel (and optionally its admission
        control) for queue-depth gauges and served/shed counters.

        The resulting ``queue_depth{resource=...}`` gauges feed the
        timeline's derived ``queue_depth`` series, so the queue-buildup
        detector watches the kernel's real backlogs.  Returns the
        :class:`~repro.obs.kernel_metrics.KernelMetrics` bridge.
        """
        from repro.obs.kernel_metrics import KernelMetrics

        bridge = KernelMetrics(self.registry, kernel, admission=admission)
        self._collectors.append(bridge)
        if self.blame is None:
            from repro.obs.blame import BlameRecorder

            self.blame = BlameRecorder(registry=self.registry)
            if self.out_dir is not None:
                self.blame._stream_into(
                    os.path.join(self.out_dir, "blame.jsonl"))
        self.blame.attach(kernel, admission=admission)
        return bridge

    def observe_flash(self, ssd):
        """Register a flash device for wear/GC/WA collection.

        Returns the :class:`~repro.obs.flash_metrics.FlashDeviceMetrics`
        bridge (or None when ``ssd`` is None, so callers can pass an
        optional tier straight through).
        """
        if ssd is None:
            return None
        bridge = FlashDeviceMetrics(self.registry, ssd)
        self._collectors.append(bridge)
        return bridge

    def collect(self) -> None:
        """Sample every registered bridge into the registry.

        Called by :func:`~repro.obs.export.write_telemetry_dir` before a
        dump and by the timeline before every window close; safe to call
        repeatedly (counters advance by delta).
        """
        for bridge in self._collectors:
            bridge.collect()
        gauges = self._occupancy_gauges
        for fn in self._occupancy:
            for slot, value in fn().items():
                g = gauges.get(slot)
                if g is None:
                    g = gauges[slot] = (
                        self.registry.gauge("cache_write_buffer_entries")
                        if slot == "write_buffer" else
                        self.registry.gauge("cache_occupancy", slot=slot))
                g.set(value)
        # The observer's own losses: its ring drops.  A lossless run
        # creates no series.
        tl, blame = self.timeline, self.blame
        losses = (self.tracer.dropped, self.audit.dropped,
                  tl.dropped_windows if tl else 0,
                  self.exemplars.dropped if tl else 0,
                  blame.dropped if blame else 0)
        if losses != self._losses:
            self._losses = losses
            for advance, value in zip(self._dropped, losses):
                advance(value)

    def busy_snapshot(self, clock) -> dict[str, float]:
        """Per-channel busy time now; pass to :meth:`record_query` later."""
        return clock.busy_snapshot()

    def record_query(self, situation: str, response_us: float,
                     busy_before: dict[str, float], clock,
                     qid: int | None = None,
                     span_id: int | None = None) -> None:
        """Attribute one query's response time to stages.

        Each device channel's busy-time delta over the query becomes a
        ``stage_latency_us`` sample; the remainder (scoring, software
        overhead) is the ``cpu`` stage, so the stage sums reconcile
        exactly with total response time.  When a timeline is attached,
        the recorder ticks *before* the samples land — a closing window
        only ever contains queries that completed within it — and tail
        samples capture ``(qid, span_id, window)`` exemplars.

        Stage attribution is exact only closed-loop: with concurrent
        queries under the kernel, busy-time deltas over a query's span
        include other queries' device work, and the ``cpu`` residual
        absorbs queueing wait.  End-to-end ``query_latency_us`` stays
        exact either way.
        """
        store = self.exemplars
        if self.timeline is not None:
            # Registered histograms are recorded only below, so the
            # context is stamped per query and never needs clearing.
            store.context = (qid, span_id, self.timeline.tick(), clock._now_us)
        hists = self._channel_hists
        devices = 0.0
        for ch, busy in clock._busy_us.items():
            delta = busy - busy_before.get(ch, 0.0)
            if delta > 0.0:
                h = hists.get(ch, _UNRESOLVED)
                if h is _UNRESOLVED:
                    stage = stage_of_channel(ch)
                    h = hists[ch] = None if stage is None else (
                        self.registry.histogram("stage_latency_us",
                                                stage=stage))
                if h is not None:
                    h.record(delta)
                    devices += delta
        cpu = response_us - devices
        if cpu > 1e-9:
            h = hists.get(_CPU)
            if h is None:
                h = hists[_CPU] = self.registry.histogram(
                    "stage_latency_us", stage="cpu")
            h.record(cpu)
        insts = self._situation_insts.get(situation)
        if insts is None:
            insts = self._situation_insts[situation] = (
                self.registry.histogram("query_latency_us",
                                        situation=situation),
                self.registry.counter("queries_total", situation=situation),
            )
            if store is not None:
                store.register(insts[0], series_key(
                    "query_latency_us", {"situation": situation}))
        insts[0].record(response_us)
        insts[1].value += 1

    def close(self) -> None:
        """Detach every event-bus subscription and finish the timeline
        and blame recorder (an ``out_dir``'s ``spans.jsonl`` is closed by
        :func:`~repro.obs.export.write_telemetry_dir`)."""
        for bridge in self._bridges:
            bridge.close()
        self._bridges.clear()
        if self.timeline is not None:
            self.timeline.finish()
        if self.blame is not None:
            self.blame.finish()
        if self.flight is not None:
            # After timeline.finish() so the final window's callbacks
            # have fired before any open incident is flushed.
            self.flight.finish()
        self.audit.close()
