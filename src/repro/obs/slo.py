"""Declarative SLOs and built-in anomaly detectors over timeline windows.

An SLO is a one-line spec evaluated against the per-window derived
series the timeline records::

    p99_response_us < 100000 @ 95%
    hit_ratio >= 0.3 @ 90%
    write_amp < 3.0

Grammar: ``<series> <op> <threshold> [@ <fraction>%]``, where
``<series>`` is any derived or raw window series (see
:func:`~repro.obs.timeline.window_point`), ``<op>`` is one of
``< <= > >=``, and the optional ``@ N%`` is the *burn-rate budget*:
the fraction of evaluated windows that must satisfy the comparison for
the SLO to be met (100% when omitted).  Windows where the series has
no data are skipped, not failed.

The anomaly detectors are the monitoring playbook the paper's own
evaluation implies: hit-ratio drift (warmup regression or working-set
shift), write-amplification spikes (Fig. 13 staged victim search
degrading to multi-victim assembly), queue buildup (flush path not
keeping up), and — at the broker level — cross-shard skew (one shard's
windowed series diverging from the fleet's).

Every state machine exists once, as a ``Streaming*`` class fed one
closed window at a time — what the flight recorder runs in-run.  The
post-hoc functions (``evaluate_slos``, ``detect_*``, ``run_detectors``)
feed the saved windows through the same classes, so an in-run trigger
and the verdict CI later re-derives from the file cannot disagree.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

from repro.obs.timeline import window_point

__all__ = [
    "SloSpec",
    "SloResult",
    "Anomaly",
    "parse_slo",
    "evaluate_slo",
    "evaluate_slos",
    "detect_hit_ratio_drift",
    "detect_write_amp_spike",
    "detect_queue_buildup",
    "detect_wait_dominated",
    "detect_shard_skew",
    "run_detectors",
    "DEFAULT_SLOS",
    "StreamingHitRatioDrift",
    "StreamingWriteAmpSpike",
    "StreamingQueueBuildup",
    "StreamingWaitDominated",
    "StreamingDetectors",
    "StreamingShardSkew",
    "StreamingSloEvaluator",
]

_SLO_RE = re.compile(
    r"^\s*(?P<series>[A-Za-z_][\w{}=,.\-]*)\s*"
    r"(?P<op><=|>=|<|>)\s*"
    r"(?P<threshold>[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
    r"(?:\s*@\s*(?P<pct>\d+(?:\.\d+)?)\s*%)?\s*$"
)

_OPS = {
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
}


@dataclass(frozen=True)
class SloSpec:
    """One parsed SLO line."""

    series: str
    op: str
    threshold: float
    min_fraction: float  # fraction of windows that must pass (0..1]
    text: str

    def check(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)


@dataclass(frozen=True)
class SloResult:
    """Evaluation of one SLO over a window sequence."""

    spec: SloSpec
    windows_evaluated: int
    windows_passed: int
    verdict: str  # "met" | "violated" | "no-data"
    worst_window: int | None = None
    worst_value: float | None = None

    @property
    def fraction(self) -> float:
        if self.windows_evaluated == 0:
            return 0.0
        return self.windows_passed / self.windows_evaluated

    def to_dict(self) -> dict:
        return {
            "slo": self.spec.text,
            "series": self.spec.series,
            "verdict": self.verdict,
            "windows_evaluated": self.windows_evaluated,
            "windows_passed": self.windows_passed,
            "fraction": self.fraction,
            "worst_window": self.worst_window,
            "worst_value": self.worst_value,
        }

    def format(self) -> str:
        if self.verdict == "no-data":
            return f"?  {self.spec.text}  (no data)"
        mark = "ok" if self.verdict == "met" else "FAIL"
        line = (f"{mark:4s} {self.spec.text}  "
                f"[{self.windows_passed}/{self.windows_evaluated} windows]")
        if self.verdict == "violated" and self.worst_window is not None:
            line += (f"  worst: {self.worst_value:g} "
                     f"at window {self.worst_window}")
        return line


def parse_slo(text: str) -> SloSpec:
    """Parse one ``<series> <op> <threshold> [@ N%]`` line."""
    m = _SLO_RE.match(text)
    if m is None:
        raise ValueError(
            f"bad SLO spec {text!r}; expected "
            f"'<series> <op> <threshold> [@ <fraction>%]' "
            f"e.g. 'p99_response_us < 100000 @ 95%'"
        )
    pct = m.group("pct")
    frac = float(pct) / 100.0 if pct is not None else 1.0
    if not 0.0 < frac <= 1.0:
        raise ValueError(f"SLO fraction must be in (0, 100]%, got {pct}%")
    return SloSpec(
        series=m.group("series"),
        op=m.group("op"),
        threshold=float(m.group("threshold")),
        min_fraction=frac,
        text=" ".join(text.split()),
    )


#: A sane default verdict set for the simulated workloads: tail response
#: under 100 ms for 95% of windows, cache hit ratio at least 30% once
#: measurable, write amplification bounded.
DEFAULT_SLOS = (
    "p99_response_us < 100000 @ 95%",
    "hit_ratio >= 0.3 @ 90%",
    "write_amp < 4.0 @ 95%",
)


# ---------------------------------------------------------------------------
# Anomaly detectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Anomaly:
    """One detector firing at one window."""

    detector: str
    window: int
    severity: str  # "warn" | "critical"
    detail: str

    def format(self) -> str:
        return f"[{self.severity}] {self.detector} @ window {self.window}: {self.detail}"

    def to_dict(self) -> dict:
        return {"detector": self.detector, "window": self.window,
                "severity": self.severity, "detail": self.detail}


class StreamingHitRatioDrift:
    """Hit ratio falling ``drop`` (absolute) below its trailing-k mean."""

    name = "hit_ratio_drift"

    def __init__(self, k: int = 5, drop: float = 0.15) -> None:
        self.k = k
        self.drop = drop
        self._trail: deque[float] = deque(maxlen=k)

    def update(self, rec: dict) -> list[Anomaly]:
        pt = window_point(rec, "hit_ratio")
        if pt is None:
            return []
        w, v = pt
        out = []
        if len(self._trail) == self.k:
            trail = sum(self._trail) / self.k
            if trail - v >= self.drop:
                out.append(Anomaly(
                    self.name, w, "warn",
                    f"hit ratio {v:.3f} dropped {trail - v:.3f} below "
                    f"trailing-{self.k} mean {trail:.3f}"))
        self._trail.append(v)
        return out


class StreamingWriteAmpSpike:
    """Write amplification jumping ``factor``x over its trailing median."""

    name = "write_amp_spike"

    def __init__(self, factor: float = 2.0, min_wa: float = 1.5) -> None:
        self.factor = factor
        self.min_wa = min_wa
        self._trail: deque[float] = deque(maxlen=5)

    def update(self, rec: dict) -> list[Anomaly]:
        pt = window_point(rec, "write_amp")
        if pt is None:
            return []
        w, v = pt
        out = []
        if self._trail:
            trail = sorted(self._trail)
            median = trail[len(trail) // 2]
            if v >= self.min_wa and median > 0 and v >= self.factor * median:
                out.append(Anomaly(
                    self.name, w, "critical",
                    f"write amp {v:.2f} is {v / median:.1f}x trailing "
                    f"median {median:.2f}"))
        self._trail.append(v)
        return out


class StreamingQueueBuildup:
    """Queue depth strictly rising across ``k`` consecutive observations.

    A run of ``k`` flags a ``warn``; a run reaching ``critical_k``
    escalates to ``critical`` — the unbounded-backlog signature of an
    open-loop arrival rate past the capacity knee, which strict timeline
    gating (``repro timeline --strict``) turns into a failure.
    """

    name = "queue_buildup"

    def __init__(self, k: int = 3, critical_k: int = 6) -> None:
        self.k = k
        self.critical_k = critical_k
        self._prev: float | None = None
        self._run = 0

    def update(self, rec: dict) -> list[Anomaly]:
        pt = window_point(rec, "queue_depth")
        if pt is None:
            return []
        w, v = pt
        out = []
        if self._prev is not None:
            if v > self._prev:
                self._run += 1
                if self._run >= self.k:
                    severity = ("critical" if self._run >= self.critical_k
                                else "warn")
                    out.append(Anomaly(
                        self.name, w, severity,
                        f"queue depth rose {self._run} windows in a row "
                        f"to {v:g}"))
            else:
                self._run = 0
        self._prev = v
        return out


class StreamingWaitDominated:
    """Queueing wait crowding out service in the kernel's blame counters.

    Watches the derived ``wait_fraction`` series (queue wait / (wait +
    service), from the blame recorder's per-resource counters).  A run
    of ``k`` consecutive windows at or above ``frac`` flags a ``warn``
    — queries now spend most of their time waiting, the leading edge of
    tail inflation.  Only a run of ``critical_k`` windows at or above
    ``critical_frac`` escalates to ``critical``: sustained near-total
    wait domination is the past-the-knee signature, while merely-high
    fractions are expected when running close to (but under) capacity,
    so the strict CI gate doesn't fire on a healthy ~80%-load run.
    """

    name = "wait_dominated"

    def __init__(self, frac: float = 0.75, k: int = 4,
                 critical_frac: float = 0.95, critical_k: int = 8) -> None:
        self.frac = frac
        self.k = k
        self.critical_frac = critical_frac
        self.critical_k = critical_k
        self._warn_run = 0
        self._crit_run = 0

    def update(self, rec: dict) -> list[Anomaly]:
        pt = window_point(rec, "wait_fraction")
        if pt is None:
            return []
        w, v = pt
        self._warn_run = self._warn_run + 1 if v >= self.frac else 0
        self._crit_run = (self._crit_run + 1 if v >= self.critical_frac
                          else 0)
        out = []
        if self._crit_run >= self.critical_k:
            out.append(Anomaly(
                self.name, w, "critical",
                f"wait fraction >= {self.critical_frac:.0%} for "
                f"{self._crit_run} windows (now {v:.1%})"))
        elif self._warn_run >= self.k:
            out.append(Anomaly(
                self.name, w, "warn",
                f"wait fraction >= {self.frac:.0%} for {self._warn_run} "
                f"windows (now {v:.1%})"))
        return out


class StreamingDetectors:
    """All single-run detectors, fed one closed window at a time.

    :meth:`update` returns the anomalies this window produced, sorted
    by detector name, and accumulates them on :attr:`anomalies` —
    window indices strictly increase, so the accumulated list is
    ordered by ``(window, detector)``.
    """

    def __init__(self) -> None:
        self.detectors = [
            StreamingHitRatioDrift(),
            StreamingWriteAmpSpike(),
            StreamingQueueBuildup(),
            StreamingWaitDominated(),
        ]
        self.anomalies: list[Anomaly] = []

    def update(self, rec: dict) -> list[Anomaly]:
        batch: list[Anomaly] = []
        for det in self.detectors:
            batch.extend(det.update(rec))
        batch.sort(key=lambda a: (a.window, a.detector))
        self.anomalies.extend(batch)
        return batch


class StreamingShardSkew:
    """Cross-shard skew: one shard's windowed mean diverging from the fleet.

    Feed every shard's closed windows through :meth:`update`.  A shard
    is skewed when its mean over ``series`` differs from the *median*
    of all shard means by more than ``rel_tol`` (relative) — the median,
    not the mean, so a single lagging shard doesn't drag the reference
    down and flag every healthy shard with it.
    """

    def __init__(self, series: str = "hit_ratio",
                 rel_tol: float = 0.25) -> None:
        self.series = series
        self.rel_tol = rel_tol
        self._sums: dict = {}

    def update(self, shard_id, rec: dict) -> None:
        pt = window_point(rec, self.series)
        if pt is None:
            return
        acc = self._sums.get(shard_id)
        if acc is None:
            acc = self._sums[shard_id] = [0.0, 0]
        acc[0] += pt[1]
        acc[1] += 1

    def anomalies(self) -> list[Anomaly]:
        means = {sid: s / n for sid, (s, n) in self._sums.items() if n}
        if len(means) < 2:
            return []
        ranked = sorted(means.values())
        mid = len(ranked) // 2
        fleet = (ranked[mid] if len(ranked) % 2
                 else (ranked[mid - 1] + ranked[mid]) / 2.0)
        out = []
        for sid, m in sorted(means.items()):
            if fleet != 0 and abs(m - fleet) / abs(fleet) > self.rel_tol:
                out.append(Anomaly(
                    "shard_skew", -1, "warn",
                    f"shard {sid} mean {self.series} {m:.3f} vs fleet "
                    f"median {fleet:.3f} ({(m - fleet) / fleet:+.0%})"))
        return out


class StreamingSloEvaluator:
    """SLO evaluation, one closed window at a time.

    Accepts specs or raw text lines.  :meth:`results` at any point is
    the verdict over the windows fed so far: windows with no data for a
    series are skipped, and "worst" is the failing value farthest past
    the threshold (the first such value wins ties).
    """

    def __init__(self, specs) -> None:
        self.specs = [parse_slo(s) if isinstance(s, str) else s
                      for s in specs]
        self._state = [{"evaluated": 0, "passed": 0,
                        "worst_window": None, "worst_value": None}
                       for _ in self.specs]

    def update(self, rec: dict) -> None:
        for spec, st in zip(self.specs, self._state):
            pt = window_point(rec, spec.series)
            if pt is None:
                continue
            w, v = pt
            st["evaluated"] += 1
            if spec.check(v):
                st["passed"] += 1
            else:
                miss = abs(v - spec.threshold)
                if (st["worst_value"] is None
                        or miss > abs(st["worst_value"] - spec.threshold)):
                    st["worst_window"], st["worst_value"] = w, v

    def results(self) -> list[SloResult]:
        out = []
        for spec, st in zip(self.specs, self._state):
            if st["evaluated"] == 0:
                out.append(SloResult(spec, 0, 0, "no-data"))
                continue
            verdict = ("met" if st["passed"] / st["evaluated"]
                       >= spec.min_fraction else "violated")
            out.append(SloResult(
                spec, st["evaluated"], st["passed"], verdict,
                worst_window=st["worst_window"],
                worst_value=st["worst_value"]))
        return out


# ---------------------------------------------------------------------------
# Post-hoc evaluation: the streaming classes folded over saved windows
# ---------------------------------------------------------------------------

def evaluate_slo(spec: SloSpec, windows) -> SloResult:
    """Evaluate one SLO against the window records."""
    return evaluate_slos([spec], windows)[0]


def evaluate_slos(specs, windows) -> list[SloResult]:
    """Evaluate many SLOs; accepts specs or raw text lines."""
    evaluator = StreamingSloEvaluator(specs)
    for rec in windows:
        evaluator.update(rec)
    return evaluator.results()


def _fold(detector, windows) -> list[Anomaly]:
    out: list[Anomaly] = []
    for rec in windows:
        out.extend(detector.update(rec))
    return out


def detect_hit_ratio_drift(windows, k: int = 5,
                           drop: float = 0.15) -> list[Anomaly]:
    """:class:`StreamingHitRatioDrift` over saved windows."""
    return _fold(StreamingHitRatioDrift(k, drop), windows)


def detect_write_amp_spike(windows, factor: float = 2.0,
                           min_wa: float = 1.5) -> list[Anomaly]:
    """:class:`StreamingWriteAmpSpike` over saved windows."""
    return _fold(StreamingWriteAmpSpike(factor, min_wa), windows)


def detect_queue_buildup(windows, k: int = 3,
                         critical_k: int = 6) -> list[Anomaly]:
    """:class:`StreamingQueueBuildup` over saved windows."""
    return _fold(StreamingQueueBuildup(k, critical_k), windows)


def detect_wait_dominated(windows, frac: float = 0.75, k: int = 4,
                          critical_frac: float = 0.95,
                          critical_k: int = 8) -> list[Anomaly]:
    """:class:`StreamingWaitDominated` over saved windows."""
    return _fold(
        StreamingWaitDominated(frac, k, critical_frac, critical_k), windows)


def run_detectors(windows) -> list[Anomaly]:
    """All single-run detectors, ordered by window."""
    return _fold(StreamingDetectors(), windows)


def detect_shard_skew(shard_windows: dict, series: str = "hit_ratio",
                      rel_tol: float = 0.25) -> list[Anomaly]:
    """:class:`StreamingShardSkew` over ``{shard id: window records}``."""
    skew = StreamingShardSkew(series, rel_tol)
    for sid, windows in shard_windows.items():
        for rec in windows:
            skew.update(sid, rec)
    return skew.anomalies()
