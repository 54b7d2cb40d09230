"""Differential property: the constant-work page-mapping FTL against the
parent commit's FTL (``tests/_ftl_reference.py``), compared with ``==``.

``repro.flash.ftl_page`` was rewritten in place — TRIM journal dict → one
``int64`` array, ``np.arange`` per run → slices of one index ramp,
``np.array_equal`` → a bytes compare, dead victims erased without a page
scan, the GC candidate mask down to one compare — with the promise that
nothing observable moves.  Both FTLs are driven with the same random
sequence of span and scalar operations on a geometry small enough that
foreground GC with copy-back runs, under every victim policy, and after
*every* operation the returned latency, both mapping directions, the NAND
page states and counters, ``FtlStats``, the mapped count and the
OOB-recovered mapping (what pins the journal change) must be equal.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.constants import FlashConfig
from repro.flash.ftl_page import PageMappingFTL
from repro.flash.gc import (
    CostBenefitVictimPolicy,
    GreedyVictimPolicy,
    RandomVictimPolicy,
)

from . import _ftl_reference as reference

#: 12 blocks x 8 pages, 9 logical blocks (72 lpns): three spare blocks and
#: a GC threshold of two, so a few dozen page writes reach foreground GC
#: and fragmented overwrites leave victims with live pages to copy back.
CFG = FlashConfig(num_blocks=12, pages_per_block=8, overprovision=0.25,
                  gc_free_block_threshold=2)
PPB = CFG.pages_per_block
NUM_LPNS = CFG.logical_pages
NUM_LBLOCKS = NUM_LPNS // PPB

POLICIES = {
    "greedy": GreedyVictimPolicy,
    "costbenefit": CostBenefitVictimPolicy,
    "random": lambda: RandomVictimPolicy(seed=5),
}

SPAN_OPS = ("write_span", "trim_span", "read_span")
SCALAR_OPS = ("write", "trim", "read")


def _pair(policy: str):
    return (PageMappingFTL(CFG, victim_policy=POLICIES[policy]()),
            reference.PageMappingFTL(CFG, victim_policy=POLICIES[policy]()))


def _call(ftl, op):
    """Run one op; returns ("ok", latency) or ("raised", type, message)."""
    try:
        return ("ok", getattr(ftl, op[0])(*op[1:]))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("raised", type(exc), str(exc))


def _assert_same_state(new, ref, context) -> None:
    for name in ("_l2p", "_p2l", "_oob_lpn", "_oob_seq"):
        assert np.array_equal(getattr(new, name), getattr(ref, name)), (name, context)
    for name in ("_state", "_valid_count", "_invalid_count", "_write_ptr",
                 "erase_counts"):
        assert np.array_equal(getattr(new.nand, name),
                              getattr(ref.nand, name)), (name, context)
    for name in ("programs", "reads", "erases"):
        assert getattr(new.nand, name) == getattr(ref.nand, name), (name, context)
    assert new.stats == ref.stats, context
    assert new.mapped_lpn_count() == ref.mapped_lpn_count(), context
    assert new.erase_count_total == ref.erase_count_total, context
    assert new._write_seq == ref._write_seq, context
    assert new._active_block == ref._active_block, context
    assert new._free_blocks == ref._free_blocks, context
    assert np.array_equal(new.recover_mapping(), ref.recover_mapping()), context


def _drive(policy: str, ops) -> tuple:
    """Apply ``ops`` to both FTLs in lockstep, comparing after each one."""
    new, ref = _pair(policy)
    for step, op in enumerate(ops):
        # Age-based cleaning reads the clock: move it the same way on both.
        now = 250.0 * (step + 1)
        new.set_time(now)
        ref.set_time(now)
        got, want = _call(new, op), _call(ref, op)
        assert got == want, (step, op, got, want)
        _assert_same_state(new, ref, (step, op))
    new.nand.check_invariants()
    assert new.verify_recovery() and ref.verify_recovery()
    return new, ref


# -- operation shapes --------------------------------------------------------

#: whole-block runs on block boundaries: the cost-based placement shape
aligned = st.builds(
    lambda op, blk, n: (op, blk * PPB, min(n, NUM_LBLOCKS - blk) * PPB),
    st.sampled_from(SPAN_OPS), st.integers(0, NUM_LBLOCKS - 1), st.integers(1, 3),
)
#: sub-block fragments and spans straddling block boundaries
fragments = st.builds(
    lambda op, lpn, n: (op, lpn, min(n, NUM_LPNS - lpn)),
    st.sampled_from(SPAN_OPS), st.integers(0, NUM_LPNS - 1),
    st.integers(1, 2 * PPB + 3),
)
scalars = st.tuples(st.sampled_from(SCALAR_OPS), st.integers(0, NUM_LPNS - 1))
#: spans that leave the logical space, empty and negative counts, bad lpns
out_of_range = st.one_of(
    st.tuples(st.sampled_from(SPAN_OPS), st.integers(-3, NUM_LPNS + 3),
              st.integers(-1, PPB + 2)),
    st.tuples(st.sampled_from(SCALAR_OPS),
              st.sampled_from((-1, NUM_LPNS, NUM_LPNS + 7))),
)
op_sequences = st.lists(
    st.one_of(aligned, fragments, fragments, scalars, out_of_range),
    min_size=1, max_size=120,
)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=60, deadline=None)
@given(ops=op_sequences)
def test_ftl_matches_parent_after_every_op(policy, ops):
    _drive(policy, ops)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_geometry_reaches_gc_copy_back_and_dead_victims(policy):
    """The property's geometry is not vacuous: a seeded mixed sequence
    runs foreground GC both with copy-back (fragmented overwrites) and on
    dead victims (whole-block overwrites and trims), under each policy,
    and the two FTLs stay identical through all of it."""
    rng = random.Random(11)
    ops = []
    for _ in range(700):
        shape = rng.random()
        if shape < 0.35:
            blk = rng.randrange(NUM_LBLOCKS)
            ops.append((rng.choice(("write_span", "write_span", "trim_span")),
                        blk * PPB, PPB))
        elif shape < 0.85:
            lpn = rng.randrange(NUM_LPNS)
            ops.append((rng.choice(SPAN_OPS), lpn,
                        min(rng.randint(1, PPB + 3), NUM_LPNS - lpn)))
        else:
            ops.append((rng.choice(SCALAR_OPS), rng.randrange(NUM_LPNS)))
    new, _ = _drive(policy, ops)
    assert new.stats.block_erases > 50
    assert new.stats.gc_page_writes > 0            # copy-back ran
    assert new.stats.block_erases * PPB > new.stats.gc_page_writes
    assert new.stats.trimmed_pages > 0


@pytest.mark.parametrize("op, outcome", [
    (("write_span", NUM_LPNS - 2, 5), "raised"), (("read_span", -1, 3), "raised"),
    (("trim_span", NUM_LPNS, 1), "raised"), (("write_span", 0, 0), "raised"),
    (("read_span", 4, -2), "raised"), (("write", NUM_LPNS), "raised"),
    (("trim", -1), "raised"), (("read", NUM_LPNS + 1), "raised"),
    # an empty or negative TRIM is a free no-op, checked before the range
    (("trim_span", 3, 0), "ok"), (("trim_span", NUM_LPNS + 9, -1), "ok"),
])
def test_edge_spans_behave_like_parent(op, outcome):
    new, ref = _pair("greedy")
    got, want = _call(new, op), _call(ref, op)
    assert got[0] == outcome
    assert got == want  # same latency, or same exception type and message
    _assert_same_state(new, ref, op)
