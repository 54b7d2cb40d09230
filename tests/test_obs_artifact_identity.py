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
#: carry each depth gauge behind the derived ``queue_depth``.
PARENT_DIGESTS: dict[str, dict[str, str]] = {
    "closed_retained": {
        "audit.jsonl":
            "15269db9a3759a645b899d727f975740e67fccc202d3f440dae9f98b20b61794",
        "metrics.json":
            "ce6fd6de9093514f85db608a9bd59b56961c0a351c0c8487fa23d451de14e4a2",
        "metrics.prom":
            "79633fd22b34dd6f90e2eb03b0ebf67766aaadb0e50c894d3b6308097a99f4cb",
        "spans.jsonl":
            "3401d26694d609ea6d71e12fdc93e3a366c352294ac5d837d7fa69b4165011c3",
        "timeline.jsonl":
            "1605f35e957a2a5d366298b9fb275a5a9876660252baf88287f1c0d379ceb730",
    },
    "closed_streamed": {
        "audit.jsonl":
            "15269db9a3759a645b899d727f975740e67fccc202d3f440dae9f98b20b61794",
        "metrics.json":
            "ce6fd6de9093514f85db608a9bd59b56961c0a351c0c8487fa23d451de14e4a2",
        "metrics.prom":
            "79633fd22b34dd6f90e2eb03b0ebf67766aaadb0e50c894d3b6308097a99f4cb",
        "spans.jsonl":
            "3401d26694d609ea6d71e12fdc93e3a366c352294ac5d837d7fa69b4165011c3",
        "timeline.jsonl":
            "8566f43f1723e1b5d8fbdb856f9638512e242316ceadacf4e28acd13b0d83919",
    },
    "knee_kernel": {
        "audit.jsonl":
            "a086a157f847ad558415e8cb01383bf263ca4ef60d6e628dbbeb471b4106b4d5",
        "blame.jsonl":
            "575ba5f74f9da2531a76b7d603f202d8a49bef5bc4798a12b2aea136fee3110e",
        "incident-1/audit.jsonl":
            "a956449d6439c8936046cc7afdaf177b22e8cf7a39816280c810c56c749400aa",
        "incident-1/blame.json":
            "a2a41b349940d04968abc0f8bb38f2911aa0a627ec61c89c140b2695214286f7",
        "incident-1/incident.json":
            "ad62b6dac9d947b04c766890a1e952d45afe1d83135602a93988a5946ef7a34b",
        "incident-1/spans.jsonl":
            "d6e326dbf0b6db8a6fca4573357a263199aac1dcabd2d4ec4772f033add8c35d",
        "incident-1/windows.jsonl":
            "bb2f57514b9ec07c9c996dee2a82f000921db28f60bdb1d89ca5f87b6ea3b27d",
        "metrics.json":
            "20b841f017d922e400c2f2734a46ce1bf243d1f11bd6c462627a9115130bc3ab",
        "metrics.prom":
            "3eaa3dc6d03cc8417a04b0f32a19ed8865c7ab655be59c88b4a997ce0640d0c6",
        "spans.jsonl":
            "be78f701bca0484703998261277cb338cd95f7c63f15aac9be12757f42201c57",
        "timeline.jsonl":
            "08a7bd091f8912d240db948f6bdb2abdf5aef026125d05deeea8c39d1293d76f",
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
