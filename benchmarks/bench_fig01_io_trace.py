"""Fig. 1 + Section III: I/O patterns of search engines.

Regenerates both traces the paper examines — a UMass-style web-search
block trace and a DiskMon-style capture of our Lucene-like engine — and
measures the four signatures the paper claims: read-dominance (> 99 %),
locality, random reads, and skipped reads.
"""

from repro.analysis.tables import format_table
from repro.trace.analyzer import analyze_trace, figure1_series
from repro.trace.generator import (
    WebSearchTraceConfig,
    generate_websearch_trace,
    trace_from_engine,
)


def _run(index, log):
    umass = generate_websearch_trace(WebSearchTraceConfig(num_requests=50_000))
    engine = trace_from_engine(index, log, max_queries=400)
    return analyze_trace(umass), analyze_trace(engine), umass, engine


def test_fig01_io_patterns(index_1m, standard_log):
    a_umass, a_engine, umass, engine = _run(index_1m, standard_log)

    rows = []
    for a in (a_umass, a_engine):
        rows.append([
            a.name, a.num_requests, a.read_fraction * 100,
            a.locality_top10 * 100, a.random_fraction * 100,
            a.skipped_read_fraction * 100, a.lba_span,
        ])
    print()
    print(format_table(
        ["trace", "requests", "read%", "locality%", "random%", "skipped%", "span"],
        rows,
        title="Fig. 1 / Section III — I/O trace signatures "
              "(paper: >99% reads, obvious locality, random + skipped reads)",
    ))
    xs, ys = figure1_series(engine)
    print(f"Fig. 1(b) series: {len(xs)} read requests over LBA span "
          f"[{ys.min()}, {ys.max()}]")

    # The paper's claims, as assertions.
    assert a_umass.read_fraction > 0.99
    assert a_engine.read_fraction > 0.99
    assert a_umass.locality_top10 > 0.3
    assert a_engine.random_fraction > 0.3
    assert a_engine.skipped_read_fraction > 0.02
