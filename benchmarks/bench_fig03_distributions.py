"""Fig. 3: inverted-list utilization rate and term access frequency.

The paper measures these on 5 M enwiki documents with the AOL log; the
same two distributions are regenerated here from the synthetic corpus and
query stream: (a) utilization declines across ranked terms (lists are
almost always partially processed); (b) term access frequency is
Zipf-like and uncorrelated enough with list size that frequency alone is
a poor caching signal — the motivation for EV = Freq/SC.
"""

import numpy as np

from repro.analysis.metrics import (
    term_access_frequency_series,
    utilization_rate_series,
)
from repro.analysis.tables import format_table
from repro.analysis.zipf import fit_zipf_exponent


def _run(index, log):
    util = utilization_rate_series(index, log)
    counts, sizes = term_access_frequency_series(index, log)
    return util, counts, sizes


def test_fig03_distributions(index_5m, standard_log):
    util, counts, sizes = _run(index_5m, standard_log)

    deciles = [int(p) for p in range(0, 101, 10)]
    rows = [[f"p{p}", float(np.percentile(util, 100 - p))] for p in deciles]
    print()
    print(format_table(
        ["rank percentile", "utilization %"],
        rows,
        title="Fig. 3(a) — inverted-list utilization rate across ranked terms",
    ))

    s = fit_zipf_exponent(counts, head_fraction=0.3)
    rows = [
        ["queried terms", len(counts), ""],
        ["top-term accesses", int(counts[0]), ""],
        ["zipf exponent (head)", round(s, 3), "paper cites Zipf-like [18]"],
        ["median list size (KB)", int(np.median(sizes) / 1024), ""],
        ["p99 list size (KB)", int(np.percentile(sizes, 99) / 1024), ""],
    ]
    print(format_table(
        ["metric", "value", "note"],
        rows,
        title="Fig. 3(b) — term access frequency vs inverted list size",
    ))

    # Paper's qualitative claims.
    assert util[0] > 80.0          # head terms nearly fully used
    assert util[-1] < 20.0         # tail terms barely used
    assert 0.3 < s < 2.0           # Zipf-like access frequency
    # Lists of queried terms span orders of magnitude (variable-length).
    assert np.percentile(sizes, 95) > 20 * np.percentile(sizes, 5)
