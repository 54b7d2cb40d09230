"""Every ``repro.*`` name the reference docs put in backticks resolves.

README.md, API.md, DESIGN.md and EXPERIMENTS.md name modules, classes,
functions and constants in backticks (``repro.pkg.mod.Name``).  A name
that no longer imports is a doc describing code that is gone.
Struck-through lines (``~~``) are deletion records and are skipped, as
are backtick spans holding a schema id (``repro.obs.metrics/v1``) or a
``*`` glob.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "API.md", "DESIGN.md", "EXPERIMENTS.md")

_SPAN = re.compile(r"`([^`\n]+)`")
_NAME = re.compile(r"\brepro(?:\.\w+)+")
_SCHEMA_ID = re.compile(r"/v\d")


def doc_names(text: str) -> list[tuple[int, str]]:
    """``(line number, dotted name)`` for every checked name in ``text``."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if "~~" in line:
            continue
        for span in _SPAN.findall(line):
            if _SCHEMA_ID.search(span) or "*" in span:
                continue
            out.extend((lineno, name) for name in _NAME.findall(span))
    return out


def resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then getattr the rest."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_every_backticked_repro_name_resolves(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    missing = [f"{doc}:{n}: {name}" for n, name in doc_names(text)
               if not resolves(name)]
    assert not missing, "names that resolve to nothing:\n" + "\n".join(missing)


def test_the_scan_skips_what_it_says():
    text = ("`repro.obs.Telemetry` and `python -m repro.cli run`\n"
            "~~`repro.gone.Name`~~ struck\n"
            "`repro.obs.metrics/v1` and `repro.obs.*`\n"
            "plain repro.not.in.backticks\n")
    assert doc_names(text) == [(1, "repro.obs.Telemetry"), (1, "repro.cli")]
    assert resolves("repro.obs.Telemetry")
    assert resolves("repro.obs.telemetry.Telemetry.record_query")
    assert not resolves("repro.obs.NoSuchName")
    assert not resolves("repro.no_such_module")
