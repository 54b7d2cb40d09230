"""A pin on the settable values of ``repro`` outside ``repro.obs`` and the CLI.

A defaulted parameter is an option: every one doubles the configurations
tests and benchmarks must cover.  A value that no caller outside
``tests/`` and ``examples/`` sets to more than one value is a module
constant instead (tests that need another value ``monkeypatch`` it).

The inventory counts the defaulted positional and keyword-only
parameters of every public top-level function and of every method of a
public top-level class in ``src/repro/**/*.py``, leaving out ``obs/``
and ``cli.py`` (the observer has its own rule, and CLI flags are the
user's).  A callable is public when its name does not start with ``_``;
a method counts when its name does not start with ``_`` or it is
``__init__``.

A change that adds a parameter raises ``CEILING`` in its own diff and
names the two callers outside ``tests/`` and ``examples/`` that need
different values of it.
"""

import ast
from pathlib import Path

import repro

#: Defaulted parameters left after the constants sweep (211 before it).
CEILING = 160


def _defaulted(fn: ast.FunctionDef) -> int:
    args = fn.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def inventory(root: Path) -> dict[str, int]:
    """``{"module:callable": defaulted parameters}`` for every counted
    callable with at least one."""
    out = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts[0] == "obs" or rel.as_posix() == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                members = [
                    (f"{node.name}.{m.name}", m) for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (not m.name.startswith("_") or m.name == "__init__")
                ]
            else:
                continue
            for name, fn in members:
                n = _defaulted(fn)
                if n:
                    out[f"{rel.as_posix()}:{name}"] = n
    return out


def test_defaulted_parameters_stay_at_or_below_the_pin():
    counts = inventory(Path(repro.__file__).parent)
    total = sum(counts.values())
    listing = "\n".join(f"{n} {name}" for name, n in sorted(counts.items()))
    assert total <= CEILING, (
        f"{total} defaulted parameters outside repro.obs and cli.py, "
        f"pin {CEILING}:\n{listing}")


def test_the_inventory_counts_what_it_says(tmp_path):
    tree = {
        "kept.py": (
            "def f(a, b=1, *, c=2, d): ...\n"
            "def _private(a=1): ...\n"
            "class C:\n"
            "    def __init__(self, x=1): ...\n"
            "    def m(self, y=1, z=2): ...\n"
            "    def _h(self, w=1): ...\n"
            "class _Hidden:\n"
            "    def m(self, y=1): ...\n"),
        "obs/skipped.py": "def g(a=1): ...\n",
        "cli.py": "def h(a=1): ...\n",
    }
    for rel, text in tree.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    assert inventory(tmp_path) == {"kept.py:f": 2, "kept.py:C.__init__": 1,
                                   "kept.py:C.m": 2}
