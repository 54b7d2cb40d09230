"""Host profiler: subsystem mapping, schema, folded stacks, hot-counter
reconciliation, and the observe-never-perturb contract."""

import json

import pytest

from repro.core.config import CacheConfig, Policy
from repro.obs import (
    HOT,
    PROFILE_SCHEMA,
    HotCounters,
    Profiler,
    Telemetry,
    format_profile,
    func_label,
    load_folded,
    load_profile,
    subsystem_of,
    validate_profile,
    write_folded,
    write_profile,
)
from repro.workloads.retrieval import run_cached
from repro.workloads.sweep import make_log_for, make_scaled_index

MB = 1024 * 1024


def small_run(telemetry=None, seed=7):
    index = make_scaled_index(20_000)
    log = make_log_for(120, seed=3)
    cfg = CacheConfig.paper_split(2 * MB, 8 * MB, policy=Policy.CBLRU)
    return run_cached(index, log, cfg, seed=seed, telemetry=telemetry)


def sim_fingerprint(result):
    stats = result.stats
    return (result.queries, result.mean_response_ms, result.throughput_qps,
            stats.result_hit_ratio, stats.list_hit_ratio,
            stats.combined_hit_ratio, result.ssd_erases,
            result.ssd_mean_access_us)


@pytest.fixture()
def profiled():
    profiler = Profiler()
    with profiler.profile():
        result = small_run()
    return profiler, result


# -- frame -> subsystem mapping ----------------------------------------------

@pytest.mark.parametrize("filename,subsystem", [
    ("/root/repo/src/repro/core/manager.py", "repro.core"),
    ("/root/repo/src/repro/flash/ftl_page.py", "repro.flash"),
    ("/root/repo/src/repro/engine/codec.py", "repro.engine"),
    ("/root/repo/src/repro/sim/kernel.py", "repro.sim"),
    ("/root/repo/src/repro/obs/telemetry.py", "repro.obs"),
    ("/root/repo/src/repro/storage/hierarchy.py", "repro.storage"),
    ("/root/repo/src/repro/hdd/disk.py", "repro.hdd"),
    ("/root/repo/src/repro/cli.py", "repro.cli"),
    ("src\\repro\\core\\lru.py", "repro.core"),
    ("~", "stdlib"),
    ("<frozen importlib._bootstrap>", "stdlib"),
    ("/usr/lib/python3.11/heapq.py", "stdlib"),
    ("/usr/lib64/python3.11/json/decoder.py", "stdlib"),
    ("/usr/lib/python3/dist-packages/numpy/core/fromnumeric.py", "other"),
    ("/venv/lib/python3.11/site-packages/numpy/random/_generator.py",
     "other"),
    ("/home/user/somewhere/script.py", "other"),
])
def test_subsystem_of(filename, subsystem):
    assert subsystem_of(filename) == subsystem


def test_func_label_compact_forms():
    assert func_label(("~", 0, "<built-in method heapq.heappop>")) \
        == "<built-in method heapq.heappop>"
    assert func_label(("/x/src/repro/core/lru.py", 40, "touch")) \
        == "repro.core.lru:touch"
    assert func_label(("/x/src/repro/obs/__init__.py", 1, "f")) \
        == "repro.obs:f"
    assert func_label(("/usr/lib/python3.11/heapq.py", 1, "heappop")) \
        == "heapq:heappop"


# -- summary schema ----------------------------------------------------------

def test_summary_schema_and_shares(profiled):
    profiler, _ = profiled
    doc = profiler.summary(top=10)
    validate_profile(doc)  # raises on malformed output
    assert doc["schema"] == PROFILE_SCHEMA
    assert doc["wall_s"] > 0
    assert 0 < doc["cpu_s"]
    assert sum(e["share"] for e in doc["subsystems"].values()) \
        == pytest.approx(1.0)
    # The run went through the cache manager, so the core subsystem must
    # have been on-stack.
    assert "repro.core" in doc["subsystems"]
    assert len(doc["top"]) <= 10
    assert doc["top"] == sorted(doc["top"], key=lambda r: r["self_s"],
                                reverse=True)
    for op, n in doc["counters"].items():
        assert op in HotCounters.OPS
        assert n >= 0
    for op, ns in doc["wall_ns_per_op"].items():
        assert doc["counters"][op] > 0
        assert ns == pytest.approx(
            doc["wall_s"] * 1e9 / doc["counters"][op])


def test_profile_json_roundtrip(tmp_path, profiled):
    profiler, _ = profiled
    doc = profiler.summary(top=5)
    doc["suite"] = "test"
    path = tmp_path / "profile.json"
    write_profile(doc, path)
    assert load_profile(path) == json.loads(path.read_text())
    assert load_profile(path)["suite"] == "test"


def test_validate_profile_rejects_malformed(profiled):
    profiler, _ = profiled
    good = profiler.summary()
    with pytest.raises(ValueError, match="not a"):
        validate_profile({"schema": "other/v1"})
    for field in ("wall_s", "subsystems", "top", "counters"):
        bad = dict(good)
        del bad[field]
        with pytest.raises(ValueError, match=field):
            validate_profile(bad)
    bad = json.loads(json.dumps(good))
    next(iter(bad["subsystems"].values()))["share"] += 0.5
    with pytest.raises(ValueError, match="sum"):
        validate_profile(bad)
    bad = json.loads(json.dumps(good))
    bad["counters"]["ftl_map_lookups"] = -1
    with pytest.raises(ValueError, match="non-negative"):
        validate_profile(bad)


def test_format_profile_renders(profiled):
    profiler, _ = profiled
    doc = profiler.summary(top=5)
    text = format_profile(doc)
    assert "wall-clock by subsystem" in text
    assert "repro.core" in text
    assert "hot-path operations" in text


def test_profiler_requires_a_section():
    profiler = Profiler()
    with pytest.raises(RuntimeError, match="nothing profiled"):
        profiler.summary()


def test_profiler_sections_accumulate_and_cannot_nest():
    profiler = Profiler()
    with profiler.profile():
        sum(range(1000))
    with profiler.profile():
        sum(range(1000))
    assert profiler.sections == 2
    with pytest.raises(RuntimeError, match="nest"):
        with profiler.profile():
            with profiler.profile():
                pass  # pragma: no cover


# -- folded stacks -----------------------------------------------------------

def test_folded_output_well_formed(tmp_path, profiled):
    profiler, _ = profiled
    lines = profiler.folded_lines()
    assert lines, "profiled run produced no stacks"
    path = tmp_path / "profile.folded"
    write_folded(lines, path)
    stacks = load_folded(path)  # raises on malformed lines
    assert len(stacks) == len(lines)
    for stack, count in stacks:
        assert count >= 1
        frames = stack.split(";")
        assert all(frames)
        assert all(" " not in f for f in frames)
    # Stacks must reach into the simulation, not just the harness.
    assert any("repro.core" in s for s, _ in stacks)


def test_load_folded_rejects_malformed(tmp_path):
    path = tmp_path / "bad.folded"
    for content, msg in [
        ("", "no stacks"),
        ("frame-without-count\n", "malformed"),
        ("a;b notanumber\n", "malformed"),
        ("a;b 0\n", "malformed"),
        ("a;;b 5\n", "empty frame"),
    ]:
        path.write_text(content)
        with pytest.raises(ValueError):
            load_folded(path)


# -- hot-counter reconciliation ----------------------------------------------

def test_lru_moves_count_exactly():
    from repro.core.lru import LruList

    before = HOT.snapshot()
    lru = LruList(replace_window=2)
    lru.insert("a", 1)   # 1 move
    lru.insert("b", 2)   # 1
    lru.touch("a")       # 1
    lru.pop("b")         # 1
    lru.insert("c", 3)   # 1
    lru.pop_lru()        # 1
    assert HOT.delta(before)["lru_node_moves"] == 6


def test_kernel_heap_pops_match_handled():
    from repro.sim.clock import VirtualClock
    from repro.sim.kernel import Kernel

    clock = VirtualClock()
    kernel = Kernel(clock)
    for i in range(5):
        kernel.at(float(i), lambda: None)
    before = HOT.snapshot()
    handled = kernel.run()
    assert HOT.delta(before)["kernel_heap_pops"] == handled == 5


def test_histogram_records_match_counts():
    from repro.obs.instruments import Histogram

    before = HOT.snapshot()
    h1, h2 = Histogram(), Histogram()
    for v in (1.0, 2.0, 3.0):
        h1.record(v)
    h2.record(10.0)
    assert HOT.delta(before)["histogram_records"] == h1.count + h2.count == 4


def test_postings_decoded_matches_codec():
    import numpy as np

    from repro.engine.codec import decode_posting_list, encode_posting_list
    from repro.engine.postings import PostingList

    plist = PostingList(3, np.array([1, 5, 9], dtype=np.int64),
                        np.array([2, 2, 1], dtype=np.int32))
    blob = encode_posting_list(plist)
    before = HOT.snapshot()
    decoded = decode_posting_list(blob)
    assert HOT.delta(before)["postings_decoded"] == len(decoded) == 3


def test_ftl_lookups_cover_host_ops():
    """Every host read/write/trim the SSD serves does >= 1 map lookup."""
    from repro.flash.constants import FlashConfig
    from repro.flash.ftl_page import PageMappingFTL

    ftl = PageMappingFTL(
        FlashConfig(num_blocks=16, pages_per_block=8, overprovision=0.25))
    before = HOT.snapshot()
    ftl.write(0)
    ftl.write(1)
    ftl.read(0)
    ftl.trim(1)
    ftl.write_span(4, 3)
    ftl.read_span(4, 3)
    delta = HOT.delta(before)["ftl_map_lookups"]
    stats = ftl.stats
    host_ops = stats.host_page_reads + stats.host_page_writes + 1  # + trim
    assert delta == host_ops == 10


def test_run_counters_reconcile_with_ftl_stats():
    """In a full cached run, map lookups cover the FTL's host ops."""
    index = make_scaled_index(20_000)
    log = make_log_for(120, seed=3)
    cfg = CacheConfig.paper_split(2 * MB, 8 * MB, policy=Policy.CBLRU)
    from repro.workloads.retrieval import prepare_cached_manager

    mgr = prepare_cached_manager(index, log, cfg, seed=7)
    before = HOT.snapshot()
    run_cached(index, log, cfg, seed=7, manager=mgr)
    lookups = HOT.delta(before)["ftl_map_lookups"]
    stats = mgr.ssd.ftl.stats
    assert lookups >= stats.host_page_reads + stats.host_page_writes > 0


# -- observe, never perturb --------------------------------------------------

def test_profiling_does_not_change_simulated_metrics():
    baseline = sim_fingerprint(small_run())
    profiler = Profiler()
    with profiler.profile():
        profiled = sim_fingerprint(small_run())
    assert profiled == baseline


def test_telemetry_off_runs_stay_byte_identical():
    tel = Telemetry(trace=False, audit=False)
    with_obs = sim_fingerprint(small_run(telemetry=tel))
    without_obs = sim_fingerprint(small_run(telemetry=None))
    assert with_obs == without_obs


# -- the CLI -----------------------------------------------------------------

def test_profile_command_writes_summary_and_folded(tmp_path, capsys):
    from repro.cli import main

    summary, folded = tmp_path / "profile.json", tmp_path / "profile.folded"
    rc = main(["profile", "--suite", "smoke", "--out", str(summary),
               "--folded", str(folded)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "wall-clock by subsystem" in out
    doc = load_profile(summary)
    assert doc["suite"] == "smoke"
    assert doc["queries"] == 4500
    assert load_folded(folded)
    # Host time is compared by hostbench/, not here: the before/after
    # and telemetry-off options are gone, not ignored.
    for flag in (["--against", str(summary)], ["--no-" + "obs-tax"]):
        with pytest.raises(SystemExit):
            main(["profile", "--suite", "smoke"] + flag)
        assert "unrecognized arguments" in capsys.readouterr().err
