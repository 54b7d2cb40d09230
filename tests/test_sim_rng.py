"""Seeded RNG helpers."""

import numpy as np

from repro.sim.rng import make_rng


def test_same_seed_same_stream():
    a = make_rng(42).random(8)
    b = make_rng(42).random(8)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(make_rng(1).random(8), make_rng(2).random(8))


def test_existing_generator_passes_through():
    gen = np.random.default_rng(0)
    assert make_rng(gen) is gen


def test_none_seed_gives_generator():
    assert isinstance(make_rng(None), np.random.Generator)
