"""End-to-end telemetry: attach, run, reconcile, export, validate."""

import json

import pytest

import repro.obs.audit as audit_module
import repro.obs.timeline as timeline_module
import repro.obs.tracer as tracer_module
from repro.core.config import CacheConfig, Policy
from repro.core.events import EventCounter
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.query import Query
from repro.obs import (
    Telemetry,
    format_stage_breakdown,
    format_stage_comparison,
    load_telemetry_dir,
    stage_summary,
    write_telemetry_dir,
)

KB = 1024


def make_manager(small_index, telemetry=None, policy=Policy.CBLRU):
    cfg = CacheConfig(
        mem_result_bytes=100 * KB, mem_list_bytes=384 * KB,
        ssd_result_bytes=512 * KB, ssd_list_bytes=2048 * KB,
        policy=policy,
    )
    return CacheManager(cfg, build_hierarchy_for(cfg, small_index), small_index,
                        telemetry=telemetry)


def replay(mgr, n=200):
    outcomes = []
    for i in range(n):
        out = mgr.process_query(Query(i % 60, (1 + i % 25, 26 + i % 20)))
        outcomes.append((out.situation, out.result_hit_level, out.response_us))
    return outcomes


# -- the acceptance bound: stage sums reconcile with total response ----------

def test_stage_sums_reconcile_with_total_response(small_index):
    tel = Telemetry()
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr)
    summary = stage_summary(tel.registry)
    assert summary, "no stage telemetry recorded"
    staged_us = sum(d["sum_us"] for d in summary.values())
    total_us = mgr.stats.total_response_us
    assert total_us > 0
    assert staged_us == pytest.approx(total_us, rel=0.01)


def test_query_latency_histogram_matches_stats(small_index):
    tel = Telemetry()
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr)
    hists = [inst for name, tags, inst in tel.registry.items()
             if name == "query_latency_us"]
    assert sum(h.count for h in hists) == mgr.stats.queries
    assert sum(h.sum for h in hists) == pytest.approx(
        mgr.stats.total_response_us, rel=1e-9)


# -- telemetry is an observer: attaching it changes nothing ------------------

def test_telemetry_does_not_change_outcomes(small_index):
    bare = replay(make_manager(small_index))
    observed = replay(make_manager(small_index, telemetry=Telemetry()))
    assert bare == observed


def test_registry_only_mode_records_no_spans(small_index):
    tel = Telemetry(trace=False)
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr, n=50)
    assert tel.tracer.spans == ()
    assert stage_summary(tel.registry)  # metrics still flow


# -- spans cover the hot path ------------------------------------------------

def test_spans_nest_under_query_spans(small_index):
    tel = Telemetry()
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr, n=100)
    spans = tel.tracer.spans
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    assert len(by_name["query"]) == mgr.stats.queries
    assert "result.lookup" in by_name
    assert "list.fetch" in by_name
    assert any(name.startswith("index-hdd.") for name in by_name)
    # Every lookup/fetch span is parented by a query span.
    query_ids = {s.span_id for s in by_name["query"]}
    for s in by_name["result.lookup"] + by_name["list.fetch"]:
        assert s.parent_id in query_ids


def test_query_span_durations_match_response_times(small_index):
    tel = Telemetry()
    mgr = make_manager(small_index, telemetry=tel)
    outcomes = replay(mgr, n=100)
    durs = [s.dur_us for s in tel.tracer.spans if s.name == "query"]
    assert durs == pytest.approx([o[2] for o in outcomes])


# -- cache events become registry counters -----------------------------------

def test_cache_event_metrics_agree_with_event_counter(small_index):
    tel = Telemetry()
    mgr = make_manager(small_index, telemetry=tel)
    counter = EventCounter(mgr.events)
    replay(mgr)
    for kind in ("result", "list"):
        flushes = tel.registry.get("cache_flushes_total", kind=kind)
        assert (flushes.value if flushes else 0) == counter.get("flush", kind)
        admits = sum(
            inst.value for name, tags, inst in tel.registry.items()
            if name == "cache_admits_total" and tags["kind"] == kind
        )
        assert admits == counter.get("admit", kind)


def test_one_fused_observer_per_hook_metrics_then_audit(small_index):
    tel = Telemetry()
    mgr = make_manager(small_index, telemetry=tel)
    # One observer doing metrics and audit, bound as the emitter itself:
    # the caches count their own statistics, so nothing else subscribes.
    for hooks, emitter in ((mgr.events._on_admit, mgr.events.admit),
                           (mgr.events._on_evict, mgr.events.evict),
                           (mgr.events._on_flush, mgr.events.flush),
                           (mgr.events._on_l2_victim, mgr.events.l2_victim)):
        assert len(hooks) == 1 and emitter is hooks[0]
    replay(mgr)
    mirrored = {"admit": "cache_admits_total", "evict": "cache_evicts_total",
                "flush": "cache_flushes_total",
                "l2-victim": "cache_l2_victims_total"}
    for rtype, metric in mirrored.items():
        counted = sum(inst.value for name, _, inst in tel.registry.items()
                      if name == metric)
        assert counted == sum(r.type == rtype for r in tel.audit.records) > 0
    tel.close()
    assert not (mgr.events._on_admit or mgr.events._on_flush)
    assert mgr.events.observed is False


def test_fused_observer_still_audits_when_the_metrics_half_raises():
    from repro.core.events import AdmitEvent, CacheEvents

    tel = Telemetry()
    events = CacheEvents()
    tel.observe_cache_events(events)
    # Same identity already taken by a gauge: the counter bump raises.
    tel.registry.gauge("cache_admits_total", kind="list", level="l1",
                       reason="insert")
    with pytest.raises(TypeError):
        events.admit(AdmitEvent(kind="list", key=3, level="l1", nbytes=10))
    assert [r.type for r in tel.audit.records] == ["admit"]


# -- the observer reports its own losses -------------------------------------

def test_lossless_run_has_no_obs_dropped_series(small_index):
    tel = Telemetry()
    tel.attach_timeline(window_us=5_000.0)
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr)
    tel.collect()
    assert not [name for name, _, _ in tel.registry.items()
                if name == "obs_dropped_total"]


def test_obs_dropped_total_counts_what_the_observer_lost(small_index,
                                                         tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(tracer_module, "MAX_SPANS", 50)
    monkeypatch.setattr(audit_module, "AUDIT_CAPACITY", 40)
    monkeypatch.setattr(timeline_module, "RETAIN_WINDOWS", 3)
    tel = Telemetry()
    tel.attach_timeline(window_us=2_000.0)
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr, n=300)
    tel.collect()
    tel.collect()  # deltas, not re-adds: sampling twice changes nothing
    got = {tags["what"]: inst.value for name, tags, inst in
           tel.registry.items() if name == "obs_dropped_total"}
    assert got == {
        "spans": tel.tracer.dropped,
        "audit_records": tel.audit.dropped,
        "windows": tel.timeline.dropped_windows,
    }
    assert min(got.values()) > 0
    # ... and `repro report` says so.
    from repro.cli import main

    out = tmp_path / "tel"
    write_telemetry_dir(tel, out)
    assert main(["report", str(out)]) == 0
    assert "observer losses (obs_dropped_total):" in capsys.readouterr().out


# -- export and validation ---------------------------------------------------

def test_write_and_validate_telemetry_dir(tmp_path, small_index):
    tel = Telemetry()
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr)
    out = tmp_path / "t"
    written = write_telemetry_dir(tel, out)
    assert written["spans"] > 0
    assert written["metrics"] > 0
    assert written["dropped_spans"] == 0
    loaded = load_telemetry_dir(out)
    assert len(loaded.spans.spans) == written["spans"]
    assert len(loaded.metrics["metrics"]) == written["metrics"]
    assert len(loaded.audit.records) == written["audit_records"] > 0
    assert loaded.timeline is None and loaded.blame is None
    assert loaded.incidents == [] and loaded.torn_tail == 0


def test_validate_rejects_missing_and_malformed(tmp_path, small_index):
    with pytest.raises(ValueError, match="missing"):
        load_telemetry_dir(tmp_path / "nowhere")
    tel = Telemetry()
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr, n=50)
    out = tmp_path / "t"
    write_telemetry_dir(tel, out)
    bad = {"span_id": 1, "parent_id": None, "name": "x",
           "start_us": 5.0, "end_us": 1.0, "dur_us": -4.0, "attrs": {}}
    (out / "spans.jsonl").write_text(json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match="ends before"):
        load_telemetry_dir(out)
    (out / "spans.jsonl").write_text('{"span_id": 1}\n')
    with pytest.raises(ValueError, match="missing fields"):
        load_telemetry_dir(out)


# -- breakdown tables --------------------------------------------------------

def test_stage_breakdown_table_lists_stages(small_index):
    tel = Telemetry()
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr)
    table = format_stage_breakdown(tel.registry)
    for stage in ("l2", "hdd", "cpu"):
        assert stage in table
    # Rendering a snapshot gives the same table as the live registry.
    assert format_stage_breakdown(tel.registry.snapshot()) == table


def test_stage_comparison_table(small_index):
    tables = {}
    for policy in (Policy.LRU, Policy.CBLRU):
        tel = Telemetry(trace=False)
        replay(make_manager(small_index, telemetry=tel, policy=policy))
        tables[policy.value] = tel.registry
    text = format_stage_comparison(tables)
    assert "lru" in text and "cblru" in text
    assert "l2" in text
    with pytest.raises(ValueError):
        format_stage_comparison({})
