"""Simulation kernel: virtual clock, seeded randomness, and counters.

Everything in :mod:`repro` runs on *virtual time*.  Device models charge
service time to a :class:`~repro.sim.clock.VirtualClock`; no wall-clock
sleeping ever happens.  This keeps experiments deterministic and lets a
laptop sweep the paper's parameter space in seconds.
"""

from repro.sim.clock import VirtualClock
from repro.sim.counters import Counter, CounterSet
from repro.sim.rng import make_rng

__all__ = ["VirtualClock", "Counter", "CounterSet", "make_rng"]
