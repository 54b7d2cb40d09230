"""Host-side profiling: where does *wall-clock* time go?

Everything else in ``repro.obs`` measures the simulated system on the
virtual clock.  This module *attributes* the simulator's own host time
— which subsystem, which function, which call stack — so an
optimisation knows where to look.  It is not a ruler: a cProfile'd wall
is inflated by the profiler itself, so speed is measured, compared and
gated by ``hostbench/``.  Three layers:

* :class:`Profiler` — a deterministic :mod:`cProfile` capture wrapped so
  repeated ``with profiler.profile():`` sections accumulate into one
  run.  The per-function table is mapped onto a *subsystem taxonomy*
  (``repro.core``, ``repro.flash``, ``repro.engine``, ``repro.sim``,
  ``repro.obs``, ``repro.storage``, ``repro.hdd``, ..., plus ``stdlib``
  and ``other``) whose self-time shares sum to 100% of profiled CPU
  time.
* hot-op counters (:data:`repro.obs.HOT`, incremented at the source in
  the hot modules) joined with wall time into ``wall_ns_per_op`` — the
  number a rewrite must move.
* collapsed-stack output (:meth:`Profiler.folded_lines`) in Brendan
  Gregg's ``frame;frame;frame count`` format, reconstructed from the
  cProfile caller graph by proportional attribution (the ``flameprof``
  technique), so ``flamegraph.pl``/speedscope render it directly.

The profiler observes, never perturbs: it touches no simulated state,
so simulated metrics are byte-identical with profiling on or off
(tested in ``tests/test_obs_profiler.py``).

Summary schema (``repro.obs.profile/v1``)::

    {"schema": "repro.obs.profile/v1",
     "wall_s": ..., "cpu_s": ..., "calls": ...,
     "subsystems": {"repro.core": {"self_s":, "share":, "calls":}, ...},
     "top": [{"func":, "subsystem":, "self_s":, "cum_s":, "calls":}, ...],
     "counters": {"ftl_map_lookups": ..., ...},
     "wall_ns_per_op": {"ftl_map_lookups": ..., ...}}

plus optional context keys callers add (``suite``, ``queries``,
``build_wall_s``).
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from contextlib import contextmanager

from repro._hot import HOT, HotCounters

__all__ = [
    "PROFILE_SCHEMA",
    "Profiler",
    "subsystem_of",
    "func_label",
    "write_folded",
    "load_folded",
    "write_profile",
    "load_profile",
    "format_profile",
]

PROFILE_SCHEMA = "repro.obs.profile/v1"


def subsystem_of(filename: str) -> str:
    """Map a frame's filename onto the subsystem taxonomy.

    ``.../repro/<pkg>/...`` -> ``repro.<pkg>`` (``repro/cli.py`` ->
    ``repro.cli``); built-ins, frozen modules and stdlib files ->
    ``stdlib``; site-packages (numpy et al.) and anything unrecognised
    -> ``other``.  Purely path-based, so the mapping is deterministic
    and unit-testable with literal paths.
    """
    f = filename.replace("\\", "/")
    if "/repro/" in f:
        tail = f.rsplit("/repro/", 1)[1]
        pkg = tail.split("/", 1)[0]
        if pkg.endswith(".py"):
            pkg = pkg[:-3]
        return f"repro.{pkg}"
    if f == "~" or f.startswith("<"):
        # built-in functions ('~') and frozen/importlib/<string> frames
        return "stdlib"
    if "site-packages" in f or "dist-packages" in f:
        return "other"
    if "/lib/python" in f or "/lib64/python" in f:
        return "stdlib"
    return "other"


def func_label(func: tuple) -> str:
    """A compact ``module:name`` label for a pstats function key."""
    filename, _lineno, name = func
    if filename == "~":  # built-in: the name already says everything
        return name
    f = filename.replace("\\", "/")
    if "/repro/" in f:
        module = "repro." + f.rsplit("/repro/", 1)[1][:-3].replace("/", ".")
        module = module.removesuffix(".__init__")
    else:
        base = f.rsplit("/", 1)[-1]
        module = base[:-3] if base.endswith(".py") else base
    return f"{module}:{name}"


def _sanitize(label: str) -> str:
    """Folded-format frames may contain neither spaces nor semicolons."""
    return label.replace(";", ",").replace(" ", "_")


class Profiler:
    """Accumulating cProfile capture with subsystem attribution.

    Use as repeated non-nested sections around the code to attribute::

        profiler = Profiler()
        with profiler.profile():
            serve_queries()
        doc = profiler.summary(top=20)
        lines = profiler.folded_lines()

    Wall time (``time.perf_counter`` across sections) and hot-counter
    deltas (:data:`repro.obs.HOT`) are captured alongside the cProfile
    data, so ``summary()`` can derive ``wall_ns_per_op``.
    """

    def __init__(self) -> None:
        self._prof = cProfile.Profile()
        self.wall_s = 0.0
        self.sections = 0
        self.counters: dict[str, int] = {op: 0 for op in HotCounters.OPS}
        self._active = False

    @contextmanager
    def profile(self):
        """Profile one section; sections accumulate, nesting is an error."""
        if self._active:
            raise RuntimeError("Profiler.profile sections cannot nest")
        self._active = True
        before = HOT.snapshot()
        start = time.perf_counter()
        self._prof.enable()
        try:
            yield self
        finally:
            self._prof.disable()
            self.wall_s += time.perf_counter() - start
            for op, n in HOT.delta(before).items():
                self.counters[op] += n
            self.sections += 1
            self._active = False

    # -- extraction --------------------------------------------------------

    def _stats(self) -> dict:
        if not self.sections:
            raise RuntimeError("nothing profiled yet (no finished sections)")
        return pstats.Stats(self._prof).stats  # func -> (cc, nc, tt, ct, callers)

    def subsystem_totals(self) -> dict[str, dict]:
        """Self-time and call totals per subsystem (shares sum to 1.0)."""
        stats = self._stats()
        total_tt = sum(v[2] for v in stats.values()) or 1.0
        out: dict[str, dict] = {}
        for (filename, _l, _n), (_cc, nc, tt, _ct, _callers) in stats.items():
            entry = out.setdefault(subsystem_of(filename),
                                   {"self_s": 0.0, "calls": 0})
            entry["self_s"] += tt
            entry["calls"] += nc
        for entry in out.values():
            entry["share"] = entry["self_s"] / total_tt
        return out

    def summary(self, top: int = 20) -> dict:
        """The ``repro.obs.profile/v1`` document for this capture."""
        stats = self._stats()
        ranked = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)
        top_rows = [
            {
                "func": func_label(func),
                "subsystem": subsystem_of(func[0]),
                "self_s": tt,
                "cum_s": ct,
                "calls": nc,
            }
            for func, (_cc, nc, tt, ct, _callers) in ranked[:top]
        ]
        counters = dict(self.counters)
        wall_ns = self.wall_s * 1e9
        return {
            "schema": PROFILE_SCHEMA,
            "wall_s": self.wall_s,
            "cpu_s": sum(v[2] for v in stats.values()),
            "calls": sum(v[1] for v in stats.values()),
            "subsystems": self.subsystem_totals(),
            "top": top_rows,
            "counters": counters,
            "wall_ns_per_op": {
                op: wall_ns / n for op, n in counters.items() if n > 0
            },
        }

    # -- collapsed stacks --------------------------------------------------

    def folded_lines(self, min_frac: float = 1e-4,
                     max_depth: int = 64) -> list[str]:
        """Collapsed call stacks, ``frame;frame;frame usec`` per line.

        cProfile keeps a caller graph, not full stacks, so stacks are
        reconstructed by walking callees from the roots and splitting
        each function's time across its callers proportionally to the
        per-edge cumulative time — the standard cProfile->flamegraph
        approximation.  Paths below ``min_frac`` of total time are
        pruned; recursion is cut at the first repeated frame.
        """
        stats = self._stats()
        children: dict[tuple, list[tuple[tuple, float]]] = {}
        roots: list[tuple] = []
        for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
            if callers:
                for caller, edge in callers.items():
                    children.setdefault(caller, []).append((func, edge[3]))
            else:
                roots.append(func)
        total = sum(stats[r][3] for r in roots) or 1.0
        cutoff = total * min_frac
        acc: dict[tuple, float] = {}

        def walk(func: tuple, path: tuple, share_s: float) -> None:
            _cc, _nc, tt, ct, _callers = stats[func]
            if share_s < cutoff or ct <= 0:
                return
            self_s = share_s * (tt / ct)
            if self_s > 0:
                acc[path] = acc.get(path, 0.0) + self_s
            if len(path) >= max_depth:
                return
            for child, edge_ct in children.get(func, ()):
                if child in path_set:
                    continue
                path_set.add(child)
                walk(child, path + (child,), share_s * min(1.0, edge_ct / ct))
                path_set.discard(child)

        lines = []
        for root in roots:
            path_set = {root}
            walk(root, (root,), stats[root][3])
        for path, seconds in sorted(acc.items(),
                                    key=lambda kv: kv[1], reverse=True):
            usec = int(round(seconds * 1e6))
            if usec <= 0:
                continue
            stack = ";".join(_sanitize(func_label(f)) for f in path)
            lines.append(f"{stack} {usec}")
        return lines


# ---------------------------------------------------------------------------
# File I/O + validation (what the CI artifact step checks)
# ---------------------------------------------------------------------------

def write_folded(lines: list[str], path) -> None:
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def load_folded(path) -> list[tuple[str, int]]:
    """Load a ``profile.folded``, validating well-formedness.

    Every non-empty line must be ``stack count`` with a non-empty
    ``;``-separated stack (no spaces inside frames) and a positive
    integer count; an empty file is malformed too.
    """
    out: list[tuple[str, int]] = []
    with open(path) as fh:
        for i, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            stack, sep, count = line.rpartition(" ")
            if not sep or not stack or not count.isdigit() or int(count) < 1:
                raise ValueError(f"{path}:{i}: malformed folded line {line!r}")
            if any(not frame for frame in stack.split(";")):
                raise ValueError(f"{path}:{i}: empty frame in {stack!r}")
            out.append((stack, int(count)))
    if not out:
        raise ValueError(f"{path}: no stacks recorded")
    return out


def write_profile(doc: dict, path) -> None:
    _check_profile(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_profile(path) -> dict:
    """Load and schema-check a profile summary."""
    with open(path) as fh:
        doc = json.load(fh)
    _check_profile(doc)
    return doc


def _check_profile(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a usable profile summary."""
    if not isinstance(doc, dict) or doc.get("schema") != PROFILE_SCHEMA:
        raise ValueError(f"not a {PROFILE_SCHEMA} document")
    for field in ("wall_s", "cpu_s", "subsystems", "top", "counters"):
        if field not in doc:
            raise ValueError(f"profile summary missing {field!r}")
    subsystems = doc["subsystems"]
    if not subsystems:
        raise ValueError("profile summary has no subsystems")
    share = 0.0
    for name, entry in subsystems.items():
        if entry["self_s"] < 0:
            raise ValueError(f"subsystem {name!r} has negative self time")
        share += entry["share"]
    if abs(share - 1.0) > 1e-3:
        raise ValueError(f"subsystem shares sum to {share:.4f}, want 1.0")
    for row in doc["top"]:
        for field in ("func", "subsystem", "self_s", "cum_s", "calls"):
            if field not in row:
                raise ValueError(f"top-function row missing {field!r}")
    for op, n in doc["counters"].items():
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"counter {op!r} is not a non-negative int")


# ---------------------------------------------------------------------------
# The scoreboard (what `repro profile` prints)
# ---------------------------------------------------------------------------

def format_profile(doc: dict, top: int | None = None) -> str:
    """Render a profile summary as the host-time scoreboard."""
    from repro.analysis.tables import format_table

    parts = []
    context = f" ({doc['suite']} suite)" if "suite" in doc else ""
    head = (f"wall {doc['wall_s']:.2f} s profiled, cpu {doc['cpu_s']:.2f} s, "
            f"{doc.get('calls', 0):,} calls")
    if "queries" in doc and doc["queries"]:
        head += (f", {doc['queries']:,} queries "
                 f"({doc['wall_s'] * 1e6 / doc['queries']:,.0f} us/query)")
    if "build_wall_s" in doc:
        head += f"; build/warmup {doc['build_wall_s']:.2f} s unprofiled"
    parts.append(f"host profile{context}: {head}")

    rows = [
        [name, f"{e['self_s']:.3f}", f"{e['share']:.1%}", f"{e['calls']:,}"]
        for name, e in sorted(doc["subsystems"].items(),
                              key=lambda kv: kv[1]["self_s"], reverse=True)
    ]
    parts.append(format_table(["subsystem", "self s", "share", "calls"],
                              rows, title="wall-clock by subsystem"))

    ops = [[op, f"{n:,}",
            f"{doc['wall_ns_per_op'][op]:,.0f}" if op in doc.get(
                "wall_ns_per_op", {}) else "-"]
           for op, n in doc["counters"].items()]
    parts.append(format_table(["hot op", "count", "wall ns/op"], ops,
                              title="hot-path operations"))

    fn_rows = [
        [r["func"], r["subsystem"], f"{r['self_s']:.3f}", f"{r['cum_s']:.3f}",
         f"{r['calls']:,}"]
        for r in (doc["top"][:top] if top else doc["top"])
    ]
    parts.append(format_table(
        ["function", "subsystem", "self s", "cum s", "calls"], fn_rows,
        title=f"top {len(fn_rows)} functions by self time"))
    return "\n\n".join(parts)
