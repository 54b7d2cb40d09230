"""Byte-identity pin for every telemetry artifact.

``repro.obs`` may get cheaper; what it writes may not move.  Each
scenario below is a seeded run whose telemetry directory is hashed file
by file (SHA-256) and compared with the digests recorded from the commit
*before* the armed path was rewritten (PR 21's tree): spans, audit,
timeline, blame, ``metrics.json``, ``metrics.prom`` and every file of
every ``incident-<n>/`` bundle.

* ``closed_retained`` — the library path: a closed CBLRU run with spans,
  audit and a retained (non-streamed) timeline, dumped in one go by
  :func:`~repro.obs.write_telemetry_dir`;
* ``closed_streamed`` — the same shape through ``repro run --telemetry
  DIR --timeline`` (spans and windows streamed as they finish);
* ``knee_kernel`` — a past-knee kernel-mode Poisson run that arms the
  flight recorder and dumps at least one incident bundle.

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
from repro.obs import (Telemetry, list_incidents, load_telemetry_dir,
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
    assert list_incidents(out), "the past-knee run must dump an incident"


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
#: victims' evictions took the reason ``capacity``.
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
            "9b7e327ed2d4a22c7c3152131b74ed000cc231470a1042e8d069b68f8827162d",
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
            "1b83e7d938625cd05374da1d64901d13b2cec6c43719443a75e8f862ccc7f382",
    },
    "knee_kernel": {
        "audit.jsonl":
            "fb3952b367e68590e16a125d8b3c937d43638967409ed3441b407b8798a66a0a",
        "blame.jsonl":
            "575ba5f74f9da2531a76b7d603f202d8a49bef5bc4798a12b2aea136fee3110e",
        "incident-1/audit.jsonl":
            "d0db8f1000316d7c1c29db27ab5f1aa541a2d5ddaaee2f80738105b69ea5acbd",
        "incident-1/blame.json":
            "a2a41b349940d04968abc0f8bb38f2911aa0a627ec61c89c140b2695214286f7",
        "incident-1/incident.json":
            "ad62b6dac9d947b04c766890a1e952d45afe1d83135602a93988a5946ef7a34b",
        "incident-1/spans.jsonl":
            "d6e326dbf0b6db8a6fca4573357a263199aac1dcabd2d4ec4772f033add8c35d",
        "incident-1/windows.jsonl":
            "97fd2ef924f3fc0c944c9a9227a095fbf1373aecceda44d58f14a3b6b72cdbc9",
        "metrics.json":
            "08c95b0f81c36c4d4940c71aa0702802e64440809e25d6f9280658de35a96240",
        "metrics.prom":
            "f3210065bee29b0fa3043688acbbad09538b186031c54266c1df224fc6524997",
        "spans.jsonl":
            "be78f701bca0484703998261277cb338cd95f7c63f15aac9be12757f42201c57",
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
