"""Hot-path operation counters (host-side, zero simulated-time cost).

The profiler (:mod:`repro.obs.profiler`) attributes *wall-clock* time to
subsystems; these counters supply the denominator: how many of each
primitive operation the host executed.  Together they yield
``wall_ns_per_op`` — the scoreboard metric the raw-speed arc optimises
(fewer nanoseconds per posting decoded, per FTL map lookup, per LRU
node move).

Counting happens at the source with a plain attribute increment
(``HOT.ftl_map_lookups += 1``), cheap enough to stay unconditional
(the kernel keeps its own per-run event count and adds it here when
``run()`` ends).
The counters are host-side bookkeeping only: they never touch the
virtual clock or any simulated state, so reading or resetting them
cannot perturb simulated metrics.

This module lives at the top of the package *on purpose*: it imports
nothing, so the hot modules (``repro.core.lru``, ``repro.flash.ftl_*``,
``repro.engine.codec``, ``repro.sim.kernel``, ``repro.obs.instruments``)
can import it without creating a cycle through the heavy package
``__init__`` chains.  The public face is re-exported as
``repro.obs.HOT`` / ``repro.obs.HotCounters``.

Several counters reconcile exactly with existing simulation counters
(tested in ``tests/test_obs_profiler.py``):

* ``kernel_heap_pops`` equals :meth:`repro.sim.kernel.Kernel.run`'s
  handled-event count.  That includes *elided* events: the completion
  of an uncontended ``serve`` is provably the next event the heap would
  pop, so the kernel performs it inline without the push and the pop —
  and still counts it, because it is an event of the simulated
  schedule, not of the host's data structure;
* ``histogram_records`` equals the summed ``count`` of every histogram
  recorded into;
* ``ftl_map_lookups`` covers every host read/write/trim an FTL serves
  (>= ``FtlStats`` host ops; GC relocations do not re-enter the host
  entry points).
"""

from __future__ import annotations

__all__ = ["HotCounters", "HOT"]


class HotCounters:
    """A bundle of monotonically increasing host-side op counts."""

    #: The counted operations, in scoreboard order.
    OPS = (
        "postings_decoded",      # postings materialised by codec/scoring
        "daat_advance_steps",    # DAAT driver advances + skip probes
        "ftl_map_lookups",       # FTL host read/write/trim translations
        "lru_node_moves",        # LruList touch/insert/pop recency ops
        "kernel_heap_pops",      # kernel events handled (popped or elided)
        "histogram_records",     # obs histogram samples (obs self-cost)
    )

    __slots__ = OPS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for op in self.OPS:
            setattr(self, op, 0)

    def snapshot(self) -> dict[str, int]:
        """Current totals, cheap to diff (see :meth:`delta`)."""
        return {op: getattr(self, op) for op in self.OPS}

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Ops performed since ``before`` (an earlier :meth:`snapshot`)."""
        return {op: getattr(self, op) - before.get(op, 0) for op in self.OPS}


#: The process-wide counter bundle every hot site increments.
HOT = HotCounters()
