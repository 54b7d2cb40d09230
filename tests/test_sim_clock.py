"""Virtual clock semantics."""

import pytest

from repro.sim.clock import VirtualClock


def test_starts_at_zero_by_default():
    clock = VirtualClock()
    assert clock.now_us == 0.0


def test_custom_start():
    assert VirtualClock(5.0).now_us == 5.0


def test_negative_start_rejected():
    with pytest.raises(ValueError):
        VirtualClock(-1.0)


def test_advance_accumulates_and_returns_now():
    clock = VirtualClock()
    assert clock.advance(10.0) == 10.0
    assert clock.advance(2.5) == 12.5
    assert clock.now_us == 12.5


def test_advance_rejects_negative():
    clock = VirtualClock()
    with pytest.raises(ValueError):
        clock.advance(-0.1)


def test_unit_conversions():
    clock = VirtualClock()
    clock.advance(2_500_000.0)
    assert clock.now_ms == pytest.approx(2500.0)
    assert clock.now_s == pytest.approx(2.5)


def test_charge_tracks_channels_independently():
    clock = VirtualClock()
    clock.charge("ssd", 5.0)
    clock.charge("hdd", 7.0)
    clock.charge("ssd", 3.0)
    assert clock.busy_us("ssd") == pytest.approx(8.0)
    assert clock.busy_us("hdd") == pytest.approx(7.0)
    assert set(clock.channels()) == {"ssd", "hdd"}


def test_charge_does_not_advance_now():
    clock = VirtualClock()
    clock.charge("x", 100.0)
    assert clock.now_us == 0.0


def test_charge_rejects_negative():
    clock = VirtualClock()
    with pytest.raises(ValueError):
        clock.charge("x", -1.0)


def test_unknown_channel_reads_zero():
    assert VirtualClock().busy_us("nope") == 0.0


def test_reset_clears_time_and_channels():
    clock = VirtualClock()
    clock.advance(9.0)
    clock.charge("a", 1.0)
    clock.reset()
    assert clock.now_us == 0.0
    assert clock.channels() == ()


# -- monotonicity (advance_to) -----------------------------------------------

def test_advance_to_jumps_forward():
    clock = VirtualClock()
    assert clock.advance_to(50.0) == 50.0
    assert clock.now_us == 50.0


def test_advance_to_same_instant_is_allowed():
    clock = VirtualClock()
    clock.advance(10.0)
    assert clock.advance_to(10.0) == 10.0


def test_advance_to_rejects_time_travel():
    clock = VirtualClock()
    clock.advance(10.0)
    with pytest.raises(ValueError, match="backwards"):
        clock.advance_to(9.999)
    assert clock.now_us == 10.0  # a rejected jump leaves the clock untouched


# -- NaN is not a time -------------------------------------------------------
# ``nan < 0`` is false, so a guard written that way lets it through and
# every later reading of the clock is nan.  All four entry points refuse.

NAN = float("nan")


@pytest.mark.parametrize("poison", [
    lambda clock: clock.advance(NAN),
    lambda clock: clock.advance_to(NAN),
    lambda clock: clock.consume("ssd", NAN),
    lambda clock: clock.consume("cpu", NAN, charge=False),
    lambda clock: clock.charge("ssd", NAN),
], ids=["advance", "advance_to", "consume", "consume_uncharged", "charge"])
def test_nan_is_rejected_and_leaves_the_clock_untouched(poison):
    clock = VirtualClock()
    clock.consume("ssd", 10.0)
    with pytest.raises(ValueError):
        poison(clock)
    assert clock.now_us == 10.0
    assert clock.busy_us("ssd") == 10.0


def test_nan_start_rejected():
    with pytest.raises(ValueError):
        VirtualClock(NAN)


# -- the consume seam --------------------------------------------------------

class _StubKernel:
    """Records serve() calls.  The seam is one test — "does the kernel
    name a current task?" — scripted per test; ``serve`` itself is where
    the real kernel checks that the caller is that task."""

    def __init__(self, in_task: bool) -> None:
        self._current = object() if in_task else None
        self.calls = []

    def serve(self, channel, delta_us, charge=True):
        self.calls.append((channel, delta_us, charge))


def test_consume_without_kernel_is_advance_plus_charge():
    clock = VirtualClock()
    assert clock.consume("ssd", 8.0) == 8.0
    assert clock.busy_us("ssd") == 8.0


def test_consume_charge_false_advances_without_attribution():
    clock = VirtualClock()
    clock.consume("cpu", 5.0, charge=False)
    assert clock.now_us == 5.0
    assert clock.busy_us("cpu") == 0.0


def test_consume_routes_to_bound_kernel_inside_task():
    clock = VirtualClock()
    kernel = _StubKernel(in_task=True)
    clock.bind_kernel(kernel)
    assert clock.kernel is kernel
    clock.consume("ssd", 8.0, charge=False)
    # The kernel owns time and attribution now: nothing happened inline.
    assert kernel.calls == [("ssd", 8.0, False)]
    assert clock.now_us == 0.0
    assert clock.busy_us("ssd") == 0.0


def test_consume_outside_task_ignores_bound_kernel():
    clock = VirtualClock()
    kernel = _StubKernel(in_task=False)
    clock.bind_kernel(kernel)
    clock.consume("ssd", 8.0)
    assert kernel.calls == []
    assert clock.now_us == 8.0
    assert clock.busy_us("ssd") == 8.0
    clock.bind_kernel(None)
    assert clock.kernel is None
