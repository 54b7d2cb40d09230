"""The decision audit trail: recording, explain, parity with unaudited runs."""

import json

import pytest

import repro.obs.audit as audit_module
from repro.core.config import CacheConfig, Policy
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.query import Query
from repro.obs import (
    NULL_AUDIT,
    AuditLog,
    Telemetry,
    explain_subject,
    format_explanation,
    load_audit_jsonl,
)
from repro.sim.clock import VirtualClock

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
    for i in range(n):
        mgr.process_query(Query(i % 60, (1 + i % 25, 26 + i % 20)))


# -- the log itself ----------------------------------------------------------

def test_record_stamps_clock_and_sequences():
    clock = VirtualClock()
    log = AuditLog(clock=clock)
    log.record("list.select", "list", 7, ev=1.5)
    clock.advance(100.0)
    log.record("evict", "list", 7, level="l1")
    assert [r.seq for r in log.records] == [1, 2]
    assert log.records[0].t_us == 0.0
    assert log.records[1].t_us == 100.0
    assert log.records[0].data == {"ev": 1.5}


def test_event_mirror_standalone_and_flush_key_is_none():
    # Regression: the flush mirror read `e.key if hasattr(e, "key")`, but
    # FlushEvent has no key — a flush writes a block, not a subject.
    from repro.core.events import (AdmitEvent, CacheEvents, EvictEvent,
                                   FlushEvent, L2VictimEvent)

    events = CacheEvents()
    log = AuditLog()
    events.observe(log)  # the log is itself a cache-event observer
    events.admit(AdmitEvent(kind="list", key=7, level="l2", nbytes=4096))
    events.evict(EvictEvent(kind="result", key=(1, 2), level="l1"))
    events.flush(FlushEvent(kind="list", lba=64, nbytes=131072, entries=2))
    events.l2_victim(L2VictimEvent(kind="list", key=7, stage="size-match"))
    assert [r.to_dict() for r in log.records] == [
        {"seq": 1, "t_us": 0.0, "type": "admit", "kind": "list", "key": 7,
         "data": {"level": "l2", "nbytes": 4096, "reason": "insert"}},
        {"seq": 2, "t_us": 0.0, "type": "evict", "kind": "result",
         "key": [1, 2],
         "data": {"level": "l1", "nbytes": 0, "reason": "unspecified"}},
        {"seq": 3, "t_us": 0.0, "type": "flush", "kind": "list", "key": None,
         "data": {"lba": 64, "nbytes": 131072, "entries": 2}},
        {"seq": 4, "t_us": 0.0, "type": "l2-victim", "kind": "list",
         "key": 7, "data": {"stage": "size-match"}},
    ]
    events.observe(None)
    events.admit(AdmitEvent(kind="list", key=8, level="l1"))
    assert len(log) == 4  # detached


def test_audit_record_is_tuple_shaped_with_named_fields():
    log = AuditLog()
    log.record("list.select", "list", 7, ev=1.5)
    [rec] = log.records
    seq, t_us, type_, kind, key, data = rec
    assert (seq, t_us, type_, kind, key, data) == (
        1, 0.0, "list.select", "list", 7, {"ev": 1.5})
    assert rec.data is data and rec.key == 7


def test_ring_drops_oldest_past_capacity(monkeypatch):
    monkeypatch.setattr(audit_module, "AUDIT_CAPACITY", 3)
    log = AuditLog()
    for i in range(5):
        log.record("admit", "list", i)
    assert len(log) == 3
    assert log.dropped == 2
    assert [r.key for r in log.records] == [2, 3, 4]
    # Sequence numbers keep counting across drops.
    assert [r.seq for r in log.records] == [3, 4, 5]


def test_records_for_matches_tuple_and_list_keys():
    log = AuditLog()
    log.record("admit", "result", (1, 2))
    log.record("admit", "result", (3, 4))
    assert [r.key for r in log.records_for("result", (1, 2))] == [(1, 2)]
    # JSON round-trips tuples as lists; querying with a list still works.
    assert [r.key for r in log.records_for("result", [1, 2])] == [(1, 2)]


def test_export_load_roundtrip_and_validation(tmp_path):
    log = AuditLog()
    log.record("list.select", "list", 5, ev=2.0, tev=0.5, admit=True)
    log.record("admit", "result", (1, 2), level="l2")
    path = tmp_path / "audit.jsonl"
    assert log.export_jsonl(path) == 2
    loaded = load_audit_jsonl(path)
    assert [r["key"] for r in loaded.records] == [5, [1, 2]]
    with open(path, "w") as fh:
        fh.write(json.dumps({"seq": 1, "type": "x"}) + "\n")
    with pytest.raises(ValueError, match="missing fields"):
        load_audit_jsonl(path)


def test_null_audit_is_inert():
    NULL_AUDIT.record("list.select", "list", 1, ev=1.0)
    assert not NULL_AUDIT.enabled
    assert len(NULL_AUDIT) == 0
    assert NULL_AUDIT.records_for("list", 1) == []


# -- decision sites through a real run ---------------------------------------

def test_run_produces_decision_records(small_index):
    tel = Telemetry(trace=False)
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr)
    types = {r.type for r in tel.audit.records}
    assert "list.select" in types
    assert "list.l1-victim" in types
    assert "admit" in types and "evict" in types
    selects = [r for r in tel.audit.records if r.type == "list.select"]
    for r in selects:
        data = r.data
        assert data["branch"] == ("admit" if data["admit"] else "tev-discard")
        assert data["admit"] == (data["ev"] >= data["tev"]) or not data["sc_blocks"]
        if data["sc_blocks"]:
            assert data["ev"] == pytest.approx(data["freq"] / data["sc_blocks"])


def test_l1_victim_walk_records_min_ev_choice(small_index):
    tel = Telemetry(trace=False)
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr)
    walks = [r for r in tel.audit.records
             if r.type == "list.l1-victim" and r.data["branch"] == "rfr-min-ev"]
    assert walks, "no replace-first-region victim walks recorded"
    for r in walks:
        evs = dict(r.data["candidates"])
        assert r.key in evs
        assert r.data["ev"] == pytest.approx(min(evs.values()))


def test_lru_policy_records_lru_branch(small_index):
    tel = Telemetry(trace=False)
    mgr = make_manager(small_index, telemetry=tel, policy=Policy.LRU)
    replay(mgr)
    walks = [r for r in tel.audit.records if r.type == "list.l1-victim"]
    assert walks
    assert {r.data["branch"] for r in walks} == {"lru"}


def test_audit_disabled_leaves_null_everywhere(small_index):
    tel = Telemetry(trace=False, audit=False)
    mgr = make_manager(small_index, telemetry=tel)
    assert mgr.policy.audit is NULL_AUDIT
    assert mgr.ssd.audit is None
    replay(mgr, n=50)
    assert len(tel.audit) == 0


# -- the paper's acceptance bar: observing must not perturb ------------------

def test_audit_parity_with_unobserved_run(small_index):
    """An audited run makes byte-identical decisions to a bare one."""
    from dataclasses import asdict

    bare = make_manager(small_index)
    observed = make_manager(small_index, telemetry=Telemetry())
    replay(bare)
    replay(observed)
    assert asdict(bare.stats) == asdict(observed.stats)
    assert bare.ssd.erase_count == observed.ssd.erase_count
    assert bare.occupancy() == observed.occupancy()
    assert bare.clock.now_us == observed.clock.now_us


# -- explain -----------------------------------------------------------------

def test_explain_reconstructs_admission_verdict(small_index):
    tel = Telemetry(trace=False)
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr)
    admitted = [r for r in tel.audit.records
                if r.type == "list.select" and r.data["admit"]]
    assert admitted
    term = admitted[-1].key
    exp = explain_subject(tel.audit.records, "list", term)
    assert exp["events"]
    text = format_explanation(exp)
    assert f"audit trail for list {term!r}" in text
    assert "EV=" in text and "TEV=" in text  # the Formula 2 story is visible


def test_explain_tev_discard_verdict():
    log = AuditLog()
    log.record("list.select", "list", 9, si_bytes=1024, pu=0.5, freq=1,
               sc_blocks=4, ev=0.25, tev=0.5, admit=False,
               branch="tev-discard")
    exp = explain_subject(log.records, "list", 9)
    assert exp["on_ssd"] is False
    assert "TEV" in exp["verdict"]


def test_explain_at_us_cuts_later_history():
    clock = VirtualClock()
    log = AuditLog(clock=clock)
    log.record("admit", "list", 3, level="l2", nbytes=1, reason="insert")
    clock.advance(1000.0)
    log.record("evict", "list", 3, level="l2", nbytes=1, reason="replaced")
    now = explain_subject(log.records, "list", 3)
    past = explain_subject(log.records, "list", 3, at_us=500.0)
    assert now["on_ssd"] is False
    assert past["on_ssd"] is True
    assert len(past["events"]) == 1


def test_explain_renders_only_the_subjects_records(monkeypatch, small_index):
    """Live records are filtered on kind and key before ``to_dict``: one
    render per record about the subject, none for the rest of the trail
    (a pair column makes a render dearer than a filter)."""
    tel = Telemetry(trace=False)
    replay(make_manager(small_index, telemetry=tel))
    records = list(tel.audit.records)
    term = next(r.key for r in records if r.type == "list.l1-victim")
    want = [r.to_dict() for r in records
            if r.kind == "list" and r.key == term]
    renders = []
    render = audit_module.AuditRecord.to_dict

    def counting(self):
        renders.append(self.seq)
        return render(self)

    monkeypatch.setattr(audit_module.AuditRecord, "to_dict", counting)
    exp = explain_subject(records, "list", term)
    assert exp["events"] == want
    assert len(renders) == len(want) < len(records) // 10


def test_explain_unknown_subject():
    exp = explain_subject([], "list", 42)
    assert exp["events"] == []
    assert exp["on_ssd"] is None
    assert "no records" in exp["verdict"]


# -- telemetry dir export ----------------------------------------------------

def test_telemetry_dir_contains_audit_jsonl(tmp_path, small_index):
    from repro.obs import load_telemetry_dir, write_telemetry_dir

    tel = Telemetry()
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr)
    out = tmp_path / "t"
    written = write_telemetry_dir(tel, out)
    assert written["audit_records"] == len(tel.audit)
    loaded = load_telemetry_dir(out).audit.records
    assert len(loaded) == written["audit_records"]
    assert {r["type"] for r in loaded} >= {"list.select", "admit", "evict"}
