"""One reader per artifact: what every read command does with the files
it loads — each parsed once, every torn tail noted, every malformed
file one ``error:`` line and exit 2, never a traceback."""

import collections
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs import list_incidents, load_blame_jsonl

_KERNEL_RUN = ["run", "--policy", "cblru", "--docs", "20000",
               "--queries", "200", "--mem-mb", "2", "--ssd-mb", "8",
               "--arrival", "poisson", "--rate-qps", "60",
               "--concurrency", "2", "--timeline"]

_KNEE_RUN = ["run", "--policy", "cbslru", "--docs", "20000",
             "--queries", "600", "--mem-mb", "2", "--ssd-mb", "8",
             "--arrival", "poisson", "--rate-qps", "3000",
             "--concurrency", "2", "--max-queue", "64",
             "--timeline", "--window-ms", "10"]


@pytest.fixture(scope="module")
def kernel_dir(tmp_path_factory):
    """spans, metrics, audit, timeline and blame; no incident bundle."""
    out = tmp_path_factory.mktemp("kernel") / "tel"
    assert main(_KERNEL_RUN + ["--no-flight", "--telemetry", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def knee_dir(tmp_path_factory):
    """Every artifact kind, incident bundles included."""
    out = tmp_path_factory.mktemp("knee") / "tel"
    assert main(_KNEE_RUN + ["--telemetry", str(out)]) == 0
    assert list_incidents(out)
    return out


def _copy(src, tmp_path):
    dst = tmp_path / "tel"
    shutil.copytree(src, dst)
    return dst


def _first_qid(out) -> int:
    log = load_blame_jsonl(out / "blame.jsonl")
    return next(r["qid"] for r in log.records if r.get("qid") is not None)


def _first_term(out) -> int:
    with open(out / "audit.jsonl") as fh:
        return next(rec["key"] for rec in map(json.loads, fh)
                    if rec["kind"] == "list")


def _one_error_line(captured) -> str:
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), captured.err
    return err[0]


_READ_COMMANDS = {
    "report": lambda d: ["report", str(d)],
    "timeline": lambda d: ["timeline", str(d)],
    "blame": lambda d: ["blame", str(d)],
    "explain --term": lambda d: ["explain", str(d), "--term",
                                 str(_first_term(d))],
    "explain --query": lambda d: ["explain", str(d), "--query",
                                  str(_first_qid(d))],
    "top --once": lambda d: ["top", str(d), "--once"],
    "compare DIR": lambda d: ["compare", str(d)],
}


@pytest.mark.parametrize("command", sorted(_READ_COMMANDS))
def test_every_read_command_notes_torn_tails(command, kernel_dir, tmp_path,
                                             capsys):
    out = _copy(kernel_dir, tmp_path)
    argv = _READ_COMMANDS[command](out)  # ids read before the cut
    cut = sorted(name for name in os.listdir(out) if name.endswith(".jsonl"))
    assert cut == ["audit.jsonl", "blame.jsonl", "spans.jsonl",
                   "timeline.jsonl"]
    for name in cut:  # a run killed mid-write: half a final line
        text = (out / name).read_text().rstrip("\n")
        head, _, last = text.rpartition("\n")
        (out / name).write_text(head + "\n" + last[: len(last) // 2])
    capsys.readouterr()
    assert main(argv) in (0, 1)
    err = capsys.readouterr().err
    assert "skipped 1 torn trailing record(s) (run cut mid-write)" in err
    assert "error:" not in err


def _count_parses(monkeypatch) -> collections.Counter:
    """Count, per path, every JSONL read and every ``json.load``."""
    parsed: collections.Counter = collections.Counter()
    import repro.obs._jsonl as jsonl

    real_read = jsonl.read_jsonl

    def counting_read(path):
        parsed[os.path.abspath(path)] += 1
        return real_read(path)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, "read_jsonl", None) is real_read):
            monkeypatch.setattr(module, "read_jsonl", counting_read)
    real_load = json.load

    def counting_load(fh, *args, **kwargs):
        parsed[os.path.abspath(fh.name)] += 1
        return real_load(fh, *args, **kwargs)

    monkeypatch.setattr(json, "load", counting_load)
    return parsed


@pytest.mark.parametrize("argv", [
    ["report"], ["compare"], ["incidents"], ["incidents", "--json"],
    ["explain", "--incident", "1"], ["top", "--once"],
], ids=" ".join)
def test_each_artifact_is_parsed_once(argv, knee_dir, monkeypatch, capsys):
    parsed = _count_parses(monkeypatch)
    assert main(argv[:1] + [str(knee_dir)] + argv[1:]) == 0
    capsys.readouterr()
    assert parsed, "the command parsed nothing"
    twice = {path: n for path, n in parsed.items() if n > 1}
    assert not twice, f"parsed more than once: {twice}"


def test_explain_incident_with_a_bad_manifest_is_an_error_not_a_crash(
        knee_dir, tmp_path, capsys):
    out = _copy(knee_dir, tmp_path)
    manifest_path = out / "incident-1" / "incident.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["counts"]
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()

    assert main(["incidents", str(out)]) == 0
    assert "INVALID:" in capsys.readouterr().out
    assert main(["explain", str(out), "--incident", "1"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "manifest missing 'counts'" in _one_error_line(captured)


def test_explain_query_rejects_blame_corrupt_mid_file(kernel_dir, tmp_path,
                                                      capsys):
    out = _copy(kernel_dir, tmp_path)
    qid = _first_qid(out)
    header, _, rest = (out / "blame.jsonl").read_text().partition("\n")
    (out / "blame.jsonl").write_text(header + "\n{bad\n" + rest)
    capsys.readouterr()
    for argv in (["blame", str(out)],
                 ["explain", str(out), "--query", str(qid)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert "corrupt JSONL record (not the final line" in \
            _one_error_line(captured)


def _claim_one_window_more(out, **extra) -> None:
    lines = (out / "timeline.jsonl").read_text().splitlines()
    footer = json.loads(lines[-1])
    footer["windows"] += 1
    footer.update(extra)
    lines[-1] = json.dumps(footer)
    (out / "timeline.jsonl").write_text("\n".join(lines) + "\n")


def test_timeline_readers_reject_a_wrong_footer_count(kernel_dir, tmp_path,
                                                      capsys):
    out = _copy(kernel_dir, tmp_path)
    _claim_one_window_more(out)
    capsys.readouterr()
    for argv in (["timeline", str(out)], ["top", str(out), "--once"],
                 ["compare", str(out)]):
        assert main(argv) == 2
        assert "footer claims" in _one_error_line(capsys.readouterr())


def test_timeline_footer_of_an_old_rotated_stream_is_rejected(
        kernel_dir, tmp_path, capsys):
    """Streams are whole files: a footer claiming more windows than a
    file with no torn tail holds is an error, also when it carries the
    ``rotated`` count that rotating streams once wrote."""
    out = _copy(kernel_dir, tmp_path)
    _claim_one_window_more(out, rotated=1)
    capsys.readouterr()
    assert main(["timeline", str(out)]) == 2
    assert "footer claims" in _one_error_line(capsys.readouterr())


def test_reader_closing_the_pipe_early_is_not_a_traceback(kernel_dir):
    """``repro blame DIR | head``: the reader leaves before the report is
    written.  The command exits 1 quietly instead of ending in a
    ``BrokenPipeError`` traceback (at the print or at shutdown)."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "blame", str(kernel_dir),
         "--top", "50"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before the first line
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1, err
    assert "Traceback" not in err and "BrokenPipe" not in err, err
