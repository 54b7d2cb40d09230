"""Garbage-collection victim selection policies.

The paper's baseline is the "ideal page-based FTL" [6] which the FlashSim
distribution pairs with **greedy** victim selection (fewest valid pages =
cheapest copy-back).  Cost-benefit and random policies are provided for
the FTL ablation benches.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.flash.nand import NandArray

__all__ = [
    "VictimPolicy",
    "GreedyVictimPolicy",
    "CostBenefitVictimPolicy",
    "RandomVictimPolicy",
]


class VictimPolicy(Protocol):
    """Chooses which candidate block garbage collection should reclaim."""

    def choose(self, nand: NandArray, candidates: np.ndarray, now_us: float) -> int:
        """Return the victim block number from ``candidates`` (non-empty)."""
        ...


class GreedyVictimPolicy:
    """Pick the candidate with the fewest valid pages (minimum copy cost)."""

    def choose(self, nand: NandArray, candidates: np.ndarray, now_us: float) -> int:
        if candidates.size == 0:
            raise ValueError("no GC candidates")
        idx = int(nand.valid_counts[candidates].argmin())
        return int(candidates[idx])


class CostBenefitVictimPolicy:
    """Classic cost-benefit cleaning (Rosenblum & Ousterhout / eNVy).

    Score = (1 - u) * age / (1 + u) where u is block utilisation and age is
    the time since the block was last programmed.  Balances copy cost
    against the likelihood that remaining valid data is cold.
    """

    def __init__(self) -> None:
        self._last_program_us: dict[int, float] = {}

    def note_program(self, block: int, now_us: float) -> None:
        """Record that ``block`` received a program at ``now_us``."""
        self._last_program_us[block] = now_us

    def choose(self, nand: NandArray, candidates: np.ndarray, now_us: float) -> int:
        if candidates.size == 0:
            raise ValueError("no GC candidates")
        ppb = nand.config.pages_per_block
        best_block = int(candidates[0])
        best_score = -1.0
        for block in candidates:
            block = int(block)
            u = nand.valid_counts[block] / ppb
            age = max(0.0, now_us - self._last_program_us.get(block, 0.0))
            score = (1.0 - u) * (1.0 + age) / (1.0 + u)
            if score > best_score:
                best_score = score
                best_block = block
        return best_block


class RandomVictimPolicy:
    """Uniform random victim — a deliberately weak baseline for ablations."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def choose(self, nand: NandArray, candidates: np.ndarray, now_us: float) -> int:
        if candidates.size == 0:
            raise ValueError("no GC candidates")
        return int(self._rng.choice(candidates))
