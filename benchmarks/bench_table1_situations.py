"""Table I: the nine retrieval situations, measured.

The paper defines S1-S9 by which devices serve a query (results or lists
from memory / SSD / HDD) and reasons about their probabilities and time
costs.  This bench measures both columns on a warm two-level cache.
"""

from repro.analysis.tables import format_table
from repro.core.config import CacheConfig, Policy
from repro.core.manager import CacheManager, build_hierarchy_for

MB = 1024 * 1024


def _run(index, log):
    cfg = CacheConfig.paper_split(
        mem_bytes=16 * MB, ssd_bytes=128 * MB, policy=Policy.CBLRU
    )
    mgr = CacheManager(cfg, build_hierarchy_for(cfg, index), index)
    for query in log.head(1_500):   # warm up
        mgr.process_query(query)
    mgr.stats.reset()
    for query in log.head(4_500)[1_500:]:
        mgr.process_query(query)
    return mgr.stats


def test_table1_situations(index_1m, standard_log):
    stats = _run(index_1m, standard_log)

    descriptions = {
        "S1": "result from memory", "S2": "lists from memory",
        "S3": "result from SSD", "S4": "lists from memory+SSD",
        "S5": "lists from SSD", "S6": "lists from memory+HDD",
        "S7": "lists from SSD+HDD", "S8": "lists from HDD",
        "S9": "lists from memory+SSD+HDD",
    }
    rows = [
        [name, descriptions[name], round(prob, 4), round(ms, 3)]
        for name, prob, ms in stats.situation_table()
    ]
    print()
    print(format_table(
        ["situation", "sources", "probability", "mean time (ms)"],
        rows,
        title="Table I — retrieval situations on a warm 2LC (CBLRU)",
    ))

    table = {name: (prob, ms) for name, prob, ms in stats.situation_table()}
    # Probabilities form a distribution.
    assert abs(sum(p for p, _ in table.values()) - 1.0) < 1e-9
    # Cache-served situations must be common on a warm cache...
    assert table["S1"][0] > 0.2
    # ...and cheaper than HDD-involved ones (T1 < T8), the premise of the
    # paper's design goal (increase P(S1..S5)).
    populated_hdd = [table[s][1] for s in ("S6", "S7", "S8", "S9")
                     if table[s][0] > 0]
    assert populated_hdd, "some queries must still reach the HDD"
    assert table["S1"][1] < min(populated_hdd) / 10
