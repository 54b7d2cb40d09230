"""Seeded random number generation helpers.

Every stochastic component takes an explicit ``numpy.random.Generator`` so
that whole experiments are reproducible from a single integer seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng"]


def make_rng(seed: int | np.random.Generator | None = 0) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Accepts an integer seed, ``None`` (non-deterministic), or an existing
    generator (returned unchanged), so call sites can be liberal in what
    they accept.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
