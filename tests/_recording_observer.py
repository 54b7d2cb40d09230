"""Cache-event helpers for tests.

:class:`Recorder` is an observer that keeps every event it is handed.
Attach it with ``manager.events.observe(Recorder())``; the bus holds one
observer, so a manager built with telemetry is read through its registry
or its audit trail instead.  :func:`count_built_events` counts the event
objects the caches build.
"""

from repro.core import events as core_events
from repro.core import list_cache, replacement, result_cache

EVENT_CLASSES = ("AdmitEvent", "EvictEvent", "FlushEvent", "L2VictimEvent")


def count_built_events(monkeypatch) -> list:
    """Patch the event classes where the caches build them; every event
    built from then on is appended to the returned list."""
    built: list = []

    def counting(cls):
        def build(*args, **kwargs):
            built.append(cls(*args, **kwargs))
            return built[-1]
        return build

    for module in (result_cache, list_cache, replacement):
        for name in EVENT_CLASSES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(getattr(core_events, name)))
    return built


class Recorder:
    """Records ``(hook, event)`` pairs in arrival order."""

    def __init__(self) -> None:
        self.events: list = []

    def on_admit(self, event) -> None:
        self.events.append(("admit", event))

    def on_evict(self, event) -> None:
        self.events.append(("evict", event))

    def on_flush(self, event) -> None:
        self.events.append(("flush", event))

    def on_l2_victim(self, event) -> None:
        self.events.append(("l2_victim", event))

    def of(self, hook: str) -> list:
        """The events delivered to one hook, in order."""
        return [e for h, e in self.events if h == hook]

    def count(self, hook: str, kind: str) -> int:
        return sum(1 for h, e in self.events if h == hook and e.kind == kind)
