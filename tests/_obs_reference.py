"""The parent's ``derive_window``, kept verbatim as the test oracle.

Copied from ``repro/obs/timeline.py`` at commit 0bbc6b5 (PR 21), before
the armed path was rewritten: six ``_sum_matching`` scans, a
:class:`~repro.obs.instruments.Histogram` rebuilt per response series,
``parse_series_key`` on every lookup counter.  Slow and obviously right;
``tests/test_obs_timeline.py`` holds the single-pass implementation in
``src/`` equal to it (values *and* key order — the derived block is
written to ``timeline.jsonl``) on generated window records.
"""

from repro.obs.instruments import Histogram

__all__ = ["derive_window_reference"]


def parse_series_key(key: str) -> tuple[str, dict]:
    """Inverse of :func:`series_key`."""
    if "{" not in key:
        return key, {}
    name, _, body = key.partition("{")
    tags = {}
    for pair in body.rstrip("}").split(","):
        if pair:
            k, _, v = pair.partition("=")
            tags[k] = v
    return name, tags


def _sum_matching(mapping: dict, prefix: str) -> float:
    return sum(v for k, v in mapping.items()
               if k == prefix or k.startswith(prefix + "{"))


def sub_histogram(entry: dict) -> Histogram:
    """Reconstruct a :class:`Histogram` from a sub-histogram record.

    ``min``/``max`` are approximated by the occupied buckets' bounds,
    so percentile estimates stay within one bucket width of the values
    a live per-window histogram would have produced.
    """
    h = Histogram(lo=entry.get("lo", 0.5), growth=entry.get("growth", 1.04))
    buckets = {int(b): c for b, c in entry["buckets"].items()}
    h._counts = buckets
    h.count = entry["count"]
    h.sum = entry["sum"]
    if buckets:
        h.min = h.bucket_bounds(min(buckets))[0]
        h.max = h.bucket_bounds(max(buckets))[1]
    return h


def _merged_response_hist(hists: dict) -> Histogram | None:
    merged: Histogram | None = None
    for key, entry in hists.items():
        if not (key == "query_latency_us"
                or key.startswith("query_latency_us{")):
            continue
        h = sub_histogram(entry)
        if merged is None:
            merged = h
        else:
            merged.merge(h)
    return merged if merged is not None and merged.count else None


def derive_window_reference(rec: dict) -> dict:
    """The standard derived series for one window record.

    Computed from the window's own deltas; series whose source
    instruments are absent are simply omitted.
    """
    counters = rec.get("counters", {})
    gauges = rec.get("gauges", {})
    hists = rec.get("histograms", {})
    out: dict = {}

    queries = _sum_matching(counters, "queries_total")
    if queries:
        out["queries"] = queries

    hits = lookups = 0.0
    for name in ("cache_result_lookups_total", "cache_list_lookups_total"):
        for key, v in counters.items():
            if not key.startswith(name + "{"):
                continue
            lookups += v
            _, tags = parse_series_key(key)
            if tags.get("outcome") in ("l1_hit", "l2_hit"):
                hits += v
    if lookups:
        out["hit_ratio"] = hits / lookups

    merged = _merged_response_hist(hists)
    if merged is not None:
        p50, p99, p999 = merged.percentiles((50.0, 99.0, 99.9))
        out["p50_response_us"] = p50
        out["p99_response_us"] = p99
        out["p999_response_us"] = p999

    host = _sum_matching(counters, "flash_host_page_writes_total")
    gc = _sum_matching(counters, "flash_gc_page_writes_total")
    if host:
        out["write_amp"] = (host + gc) / host

    erases = _sum_matching(counters, "flash_erases_total")
    if erases:
        out["erases"] = erases

    depth = None
    for prefix in ("queue_depth", "cache_write_buffer_entries"):
        matched = [v for k, v in gauges.items()
                   if k == prefix or k.startswith(prefix + "{")]
        if matched:
            depth = sum(matched) if depth is None else depth + sum(matched)
    if depth is not None:
        out["queue_depth"] = depth

    wait = _sum_matching(counters, "blame_wait_us_total")
    service = _sum_matching(counters, "blame_service_us_total")
    if wait + service > 0:
        out["wait_fraction"] = wait / (wait + service)
    return out
