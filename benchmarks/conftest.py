"""Shared benchmark fixtures.

Each ``bench_*`` file regenerates one table or figure of the paper: its
test runs the experiment once, prints a paper-style table (stdout, use
``-s`` to see it live) and asserts the figure's shape.  Nothing is
timed here; host speed is ``hostbench/``'s job.

Scale note: the paper's testbed indexes 1-5 M enwiki documents and plays
10-100 k AOL queries.  The benches keep the same axes at reduced query
counts; the *shape* of every comparison (who wins, by what factor) is the
reproduction target, not wall-clock-scale equality.
"""

from __future__ import annotations

import pytest

from repro.workloads.sweep import make_log_for, make_scaled_index

#: Document counts for the Figs. 15-18 sweeps (the paper's 1-5 M axis).
DOC_SWEEP = [1_000_000, 2_000_000, 3_000_000, 4_000_000, 5_000_000]

MB = 1024 * 1024


@pytest.fixture(scope="session")
def index_1m():
    return make_scaled_index(1_000_000)


@pytest.fixture(scope="session")
def index_5m():
    return make_scaled_index(5_000_000)


@pytest.fixture(scope="session")
def standard_log():
    """The workhorse query stream: Zipf-repeated, head-vocabulary terms."""
    return make_log_for(6_000, distinct_queries=1_800, seed=7)


@pytest.fixture(scope="session")
def long_log():
    """Longer stream for the Fig. 19 flash-activity series."""
    return make_log_for(12_000, distinct_queries=3_000, seed=9)
