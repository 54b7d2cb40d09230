"""repro.bench — the continuous benchmark harness (``repro bench``).

Deterministic end-to-end runs over the simulated stack, summarised into
a ``BENCH_<n>.json`` document: per-stage latency percentiles, hit
ratios, write amplification and total erases per scenario.  Because the
simulation is fully deterministic, the whole document reproduces byte
for byte on unchanged code — which is what makes
:func:`~repro.bench.regression.compare_benches` a usable regression
gate in CI rather than a noise detector.  Host time (how fast the
simulator itself runs) is ``hostbench/``'s job, not this package's.

Typical flow::

    repro bench --suite smoke --out BENCH_0008.json       # re-record
    repro bench --suite smoke --against BENCH_0007.json   # exits 1 on regression
"""

from repro.bench.harness import (
    BENCH_SCHEMA,
    load_bench,
    next_bench_path,
    run_suite,
    write_bench,
)
from repro.bench.regression import (
    BLAME_THRESHOLDS,
    DEFAULT_THRESHOLDS,
    Regression,
    compare_benches,
    format_regressions,
)
from repro.bench.scenarios import SUITES, BenchScenario

__all__ = [
    "BenchScenario",
    "SUITES",
    "BENCH_SCHEMA",
    "run_suite",
    "write_bench",
    "load_bench",
    "next_bench_path",
    "Regression",
    "BLAME_THRESHOLDS",
    "DEFAULT_THRESHOLDS",
    "compare_benches",
    "format_regressions",
]
