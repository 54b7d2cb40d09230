"""Kernel telemetry: service-queue and admission state bridged into a registry.

The discrete-event kernel (:mod:`repro.sim.kernel`) already tracks what
saturation analysis needs — per-resource queue depths, served counts,
busy time, admission shed counts — but on its own objects.
:class:`KernelMetrics` samples them into the shared
:class:`~repro.obs.registry.MetricsRegistry`:

================================== ======= ==============================
metric                             kind    source
================================== ======= ==============================
``queue_depth{resource=...}``      gauge   ``Resource.depth`` per resource
``queue_depth{resource=admission}`` gauge  jobs admitted but unfinished
``inflight_queries``               gauge   ``AdmissionControl.inflight``
``kernel_served_total{resource}``  counter ``Resource.served``
``kernel_busy_us_total{resource}`` counter ``Resource.busy_us``
``kernel_depth_area_us_total{..}`` counter ``Resource.depth_area_us``
                                           (depth-time integral; the
                                           measured ``L`` side of the
                                           blame layer's Little's-law
                                           self-check)
``arrivals_total``                 counter ``AdmissionStats.arrived``
``admission_rejected_total``       counter ``AdmissionStats.rejected``
``admission_completed_total``      counter ``AdmissionStats.completed``
================================== ======= ==============================

The ``queue_depth`` gauges matter most: the timeline recorder's derived
``queue_depth`` series sums every gauge with that prefix, so the
queue-buildup detector (:class:`repro.obs.slo.StreamingQueueBuildup`)
watches *emergent* backlogs instead of a model.  Counters advance by
delta per :meth:`collect`, matching the other bridges, so repeated
sampling stays correct.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry, delta_counter

__all__ = ["KernelMetrics"]


class KernelMetrics:
    """Samples a kernel (and optional admission control) into a registry.

    Purely observational — reading depths and counts never perturbs the
    schedule.
    """

    def __init__(self, registry: MetricsRegistry, kernel,
                 admission=None) -> None:
        self.registry = registry
        self.kernel = kernel
        self.admission = admission
        # Per-resource (depth gauge, served, busy, depth-area) and the
        # admission instruments, resolved once: collect() runs at every
        # window close.
        self._resource_insts: dict[str, tuple] = {}
        self._admission_insts: tuple | None = None

    def collect(self) -> None:
        reg = self.registry
        now_us = self.kernel.clock.now_us
        for res in self.kernel.resources():
            insts = self._resource_insts.get(res.name)
            if insts is None:
                insts = self._resource_insts[res.name] = (
                    reg.gauge("queue_depth", resource=res.name),
                    delta_counter(reg, "kernel_served_total",
                                  resource=res.name),
                    delta_counter(reg, "kernel_busy_us_total",
                                  resource=res.name),
                    delta_counter(reg, "kernel_depth_area_us_total",
                                  resource=res.name))
            depth, served, busy, area = insts
            depth.set(res.depth)
            served(res.served)
            busy(res.busy_us)
            res.accrue_depth(now_us)
            area(res.depth_area_us)
        ad = self.admission
        if ad is None:
            return
        if self._admission_insts is None:
            self._admission_insts = (
                reg.gauge("queue_depth", resource="admission"),
                reg.gauge("inflight_queries"),
                delta_counter(reg, "arrivals_total"),
                delta_counter(reg, "admission_rejected_total"),
                delta_counter(reg, "admission_completed_total"))
        depth, inflight, arrived, rejected, completed = self._admission_insts
        depth.set(ad.depth)
        inflight.set(ad.inflight)
        arrived(ad.stats.arrived)
        rejected(ad.stats.rejected)
        completed(ad.stats.completed)
