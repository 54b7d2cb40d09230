"""Byte-identity pin for every telemetry artifact.

``repro.obs`` may get cheaper; what it writes may not move.  Each
scenario below is a seeded run whose telemetry directory is hashed file
by file (SHA-256) and compared with the digests recorded from the commit
*before* the armed path was rewritten (PR 21's tree): spans, audit,
timeline, blame, ``metrics.json``, ``metrics.prom`` and the incident
log, ``incidents.jsonl``.

* ``closed_retained`` — the library path: a closed CBLRU run with spans,
  audit and a retained (non-streamed) timeline, dumped in one go by
  :func:`~repro.obs.write_telemetry_dir`;
* ``closed_streamed`` — the same shape through ``repro run --telemetry
  DIR --timeline`` (spans and windows streamed as they finish);
* ``knee_kernel`` — a past-knee kernel-mode Poisson run that arms the
  flight recorder and dumps at least one incident.

A digest that moves means a reader of those files sees something else:
either fix the change or, when the format is *meant* to move, re-record
with ``python tests/test_obs_artifact_identity.py`` and say so in the
changelog.
"""

import hashlib
import os

import pytest

from repro.cli import main
from repro.core.config import CacheConfig, Policy
from repro.obs import (Telemetry, load_incidents, load_telemetry_dir,
                       write_telemetry_dir)
from repro.workloads.retrieval import prepare_cached_manager, run_cached
from repro.workloads.sweep import make_log_for, make_scaled_index

MB = 1024 * 1024

_SIZES = ["--docs", "20000", "--queries", "600", "--mem-mb", "2",
          "--ssd-mb", "8"]


def _closed_retained(out: str) -> None:
    index = make_scaled_index(20_000)
    log = make_log_for(600, seed=7)
    cfg = CacheConfig.paper_split(2 * MB, 8 * MB, policy=Policy.CBLRU)
    tel = Telemetry()
    tel.attach_timeline(window_us=100_000.0)
    manager = prepare_cached_manager(index, log, cfg, telemetry=tel)
    run_cached(index, log, cfg, manager=manager)
    write_telemetry_dir(tel, out)
    tel.close()


def _closed_streamed(out: str) -> None:
    assert main(["run", "--policy", "cblru", *_SIZES, "--seed", "7",
                 "--telemetry", out, "--timeline"]) == 0


def _knee_kernel(out: str) -> None:
    assert main(["run", "--policy", "cbslru", *_SIZES,
                 "--arrival", "poisson", "--rate-qps", "3000",
                 "--concurrency", "2", "--max-queue", "64",
                 "--timeline", "--window-ms", "10",
                 "--telemetry", out]) == 0
    assert load_incidents(out).incidents, \
        "the past-knee run must dump an incident"


SCENARIOS = {
    "closed_retained": _closed_retained,
    "closed_streamed": _closed_streamed,
    "knee_kernel": _knee_kernel,
}


def digest_dir(root: str) -> dict[str, str]:
    """``{relative path: sha256}`` of every file under ``root``."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[os.path.relpath(path, root).replace(os.sep, "/")] = digest
    return dict(sorted(out.items()))


#: Recorded at commit 0bbc6b5, before anything under src/ moved,
#: except the timeline files (``timeline.jsonl``, an incident's
#: ``windows.jsonl``), re-recorded when every non-sparse window began to
#: carry each depth gauge behind the derived ``queue_depth``, and the
#: audit, metrics and timeline files, re-recorded when the Fig. 13
#: victims' evictions took the reason ``capacity``, and the incident
#: entries, re-recorded when an incident became one manifest line in
#: ``incidents.jsonl`` over the directory's own files (the five
#: ``incident-1/*`` copies are gone), and the closed runs'
#: ``timeline.jsonl``, re-recorded when the exemplar gate became strict
#: (a sample equal to its histogram's p99 is no longer a tail exemplar),
#: and the knee run's spans, blame and incident log, re-recorded when a
#: query's qid became the manager's entry count (two queries in flight
#: had shared the completed-query count).
PARENT_DIGESTS: dict[str, dict[str, str]] = {
    "closed_retained": {
        "audit.jsonl":
            "023b15031609270f8644bcd1113803818e1bcd220bff76ecef3318775b7d557c",
        "metrics.json":
            "211d1608f398754773d6a4618ea5527eaff5187c8408615d9ae6dbb31ece110d",
        "metrics.prom":
            "bd45dd09566c429391f42c935bb75de8c002791cb1a22f2533ac1ee5b3b58023",
        "spans.jsonl":
            "3401d26694d609ea6d71e12fdc93e3a366c352294ac5d837d7fa69b4165011c3",
        "timeline.jsonl":
            "01a95b9f41150b2ac75cdc67032407cf0458b76f9843182ef1fcf8b2f3968844",
    },
    "closed_streamed": {
        "audit.jsonl":
            "023b15031609270f8644bcd1113803818e1bcd220bff76ecef3318775b7d557c",
        "metrics.json":
            "211d1608f398754773d6a4618ea5527eaff5187c8408615d9ae6dbb31ece110d",
        "metrics.prom":
            "bd45dd09566c429391f42c935bb75de8c002791cb1a22f2533ac1ee5b3b58023",
        "spans.jsonl":
            "3401d26694d609ea6d71e12fdc93e3a366c352294ac5d837d7fa69b4165011c3",
        "timeline.jsonl":
            "9f68172937285c2453ee6730c999d61f85fb7c6ef95ceb917bf894ffe6dfbd6d",
    },
    "knee_kernel": {
        "audit.jsonl":
            "fb3952b367e68590e16a125d8b3c937d43638967409ed3441b407b8798a66a0a",
        "blame.jsonl":
            "6fdbbf9939c0ffe72a1fdb436edd4b53f7ad40e48b4f72f0d604858360c0fa3f",
        "incidents.jsonl":
            "39e3f38d5c2ed281832b750351af5b72d9a3f88209f51260c331044931bedb50",
        "metrics.json":
            "08c95b0f81c36c4d4940c71aa0702802e64440809e25d6f9280658de35a96240",
        "metrics.prom":
            "f3210065bee29b0fa3043688acbbad09538b186031c54266c1df224fc6524997",
        "spans.jsonl":
            "88eec1d983ca54cbc168fb6d4aa9cfb5f9043a6162baa8d8dae0d9dec550e401",
        "timeline.jsonl":
            "32cfd5f9deb665d3b536b452853b4d7e659d9b41b67b4d5e3d91ad768db5d5ba",
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_artifact_is_byte_identical_to_the_parent(name, tmp_path,
                                                        capsys):
    out = str(tmp_path / name)
    SCENARIOS[name](out)
    capsys.readouterr()
    load_telemetry_dir(out)
    got = digest_dir(out)
    want = PARENT_DIGESTS[name]
    assert sorted(got) == sorted(want), "the set of files written moved"
    moved = [path for path in want if got[path] != want[path]]
    assert not moved, f"{name}: bytes moved in {moved}"


if __name__ == "__main__":  # re-record: prints the PARENT_DIGESTS literal
    import contextlib
    import io
    import pprint
    import tempfile

    recorded = {}
    for scenario, run in sorted(SCENARIOS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                run(os.path.join(tmp, scenario))
            recorded[scenario] = digest_dir(os.path.join(tmp, scenario))
    pprint.pprint(recorded, width=100)
