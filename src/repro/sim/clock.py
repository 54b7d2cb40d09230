"""Virtual clock for discrete-time simulation.

The clock measures time in **microseconds** (float).  All device latency
parameters in :mod:`repro.flash`, :mod:`repro.hdd` and :mod:`repro.storage`
are expressed in the same unit, matching the paper's Table III (page read
32.725 us, page write 101.475 us, block erase 1500 us).
"""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """A monotonically advancing simulated clock.

    The clock supports two styles of accounting:

    * :meth:`advance` — move the global "now" forward by a service time.
      Used by sequential (closed-loop) workload drivers where one query
      completes before the next begins, which matches the paper's
      single-threaded retrieval test.
    * :meth:`charge` — accumulate busy time on a named channel without
      moving "now".  Device models use this to attribute service time to
      a device even when the driver decides how times compose.
    * :meth:`consume` — one *service* on a channel (advance + charge as a
      unit).  This is the seam the discrete-event kernel
      (:mod:`repro.sim.kernel`) hooks: with a kernel bound and the caller
      running inside a kernel task, the service is queued on the kernel's
      resource for that channel instead of advancing "now" inline, so
      concurrent queries contend for devices instead of serialising.

    Simulated time never flows backwards: :meth:`advance` rejects
    negative deltas and :meth:`advance_to` rejects absolute times in the
    past, so a mis-scheduled kernel event fails loudly instead of
    silently corrupting the timeline.
    """

    __slots__ = ("_now_us", "_busy_us", "_kernel")

    def __init__(self, start_us: float = 0.0) -> None:
        if not start_us >= 0:
            raise ValueError(f"clock cannot start at negative time: {start_us}")
        self._now_us = float(start_us)
        self._busy_us: dict[str, float] = {}
        self._kernel = None

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return self._now_us

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now_us / 1000.0

    @property
    def now_s(self) -> float:
        """Current simulated time in seconds."""
        return self._now_us / 1e6

    def advance(self, delta_us: float) -> float:
        """Move simulated time forward by ``delta_us`` and return the new now.

        Negative deltas are rejected: simulated time never flows backwards
        (and a NaN, which no ``x < 0`` test catches, would poison every
        later reading — all guards here are written ``not x >= 0``).
        """
        if not delta_us >= 0:
            raise ValueError(f"cannot advance clock by negative time: {delta_us}")
        self._now_us += delta_us
        return self._now_us

    def advance_to(self, t_us: float) -> float:
        """Jump to the absolute time ``t_us`` and return the new now.

        Rejects times in the past (monotonicity): an event scheduled
        before the current "now" is a scheduler bug, not a valid jump.
        """
        if not t_us >= self._now_us:
            raise ValueError(
                f"cannot move clock backwards: {t_us} < now {self._now_us}"
            )
        self._now_us = float(t_us)
        return self._now_us

    def bind_kernel(self, kernel) -> None:
        """Attach (or with ``None`` detach) a :class:`repro.sim.kernel.
        Kernel` that :meth:`consume` routes services through."""
        self._kernel = kernel

    @property
    def kernel(self):
        """The bound kernel, if any."""
        return self._kernel

    def consume(self, channel: str, delta_us: float,
                charge: bool = True) -> float:
        """Serve ``delta_us`` of work on ``channel``; returns the new now.

        Without a kernel (or outside any kernel task) this is exactly
        ``advance`` followed by ``charge`` — the closed-loop accounting
        every device used before the kernel existed.  Inside a kernel
        task the request queues on the channel's resource and the task
        blocks until service completes, so "now" may jump by queueing
        delay plus service time.  ``charge=False`` advances without
        attributing busy time (used for CPU work whose attribution is
        derived as the response-time residual).

        The seam is one test: a kernel that has a current task gets the
        call, through its public ``serve`` (which checks, once, that the
        caller really is that task).  The kernel names no task while an
        event callback runs, so those take the closed-loop branch.
        """
        k = self._kernel
        if k is not None and k._current is not None:
            k.serve(channel, delta_us, charge)
            return self._now_us
        # advance + charge, inlined (seven services per cache-miss query);
        # the methods stay the validating forms and raise for us.
        if not delta_us >= 0:
            self.advance(delta_us)
        self._now_us += delta_us
        if charge:
            busy = self._busy_us
            busy[channel] = busy.get(channel, 0.0) + delta_us
        return self._now_us

    def charge(self, channel: str, delta_us: float) -> None:
        """Accumulate ``delta_us`` of busy time on ``channel``."""
        if not delta_us >= 0:
            raise ValueError(f"cannot charge negative time: {delta_us}")
        self._busy_us[channel] = self._busy_us.get(channel, 0.0) + delta_us

    def busy_us(self, channel: str) -> float:
        """Total busy time accumulated on ``channel`` (0.0 if never charged)."""
        return self._busy_us.get(channel, 0.0)

    def channels(self) -> tuple[str, ...]:
        """Names of all channels that have been charged."""
        return tuple(self._busy_us)

    def busy_snapshot(self) -> dict[str, float]:
        """All per-channel busy totals as one dict copy.

        Equivalent to ``{ch: clock.busy_us(ch) for ch in clock.channels()}``
        without the per-channel method calls — the telemetry layer takes
        one of these before every query.
        """
        return dict(self._busy_us)

    def reset(self) -> None:
        """Zero the clock and all busy-time channels."""
        self._now_us = 0.0
        self._busy_us.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now_us={self._now_us:.3f}, channels={len(self._busy_us)})"
