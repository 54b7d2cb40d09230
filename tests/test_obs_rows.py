"""The row contract: a retained observer payload reads as its dict.

Spans' ``attrs``, audit records' ``data`` and blame records are
:class:`~repro._row.Row` values under shared keys.  For any shape — tuple
keys, ``None`` values, nested lists like ``list.l1-victim``'s
``candidates`` — a row renders to the same dict in the same key order,
compares equal to it both ways, and answers ``get``, ``[]``, ``in``,
``items`` and ``len`` as the dict does.  A value kept as a pair column
(:func:`~repro._row.pairs`) reads, renders, compares and pickles as its
``[[key, value], ...]`` list.  The hot writers that build rows from
their own values must land on what the ``**kwargs`` entry points
convert.
"""

import copy
import json
import pickle
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._row import Pairs, Row, pairs, row_of, shape
from repro.core.events import AdmitEvent, EvictEvent, FlushEvent, L2VictimEvent
from repro.obs import AuditLog, BlameRecorder, Tracer
from repro.sim.clock import VirtualClock

_KEYS = st.one_of(
    st.text(max_size=8),
    st.integers(-5, 5),
    st.tuples(st.integers(0, 3), st.text(max_size=3)),
)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.floats(allow_nan=False), st.text(max_size=6))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.tuples(st.integers(), st.floats(allow_nan=False))
               .map(list), max_size=4),
    max_leaves=12)
_DICTS = st.dictionaries(_KEYS, _VALUES, max_size=9)


@given(_DICTS)
def test_a_row_reads_and_renders_as_its_dict(d):
    row = row_of(d)
    assert isinstance(row, Row)
    rendered = row.to_dict()
    assert rendered == d and list(rendered) == list(d)
    if all(isinstance(k, str) for k in d):
        assert json.dumps(rendered) == json.dumps(d)
    assert row == d and d == row and not (row != d) and not (d != row)
    assert len(row) == len(d) and list(row) == list(d)
    assert list(row.keys()) == list(d) and list(row.values()) == list(
        d.values())
    assert list(row.items()) == list(d.items())
    for key, value in d.items():
        assert key in row
        assert row[key] is value and row.get(key) is value
    missing = ("absent", object())
    assert missing not in row and row.get(missing) is None
    assert row.get(missing, 7) == 7
    with pytest.raises(KeyError):
        row[missing]
    assert dict(row) == d and {**row} == d
    for clone in (pickle.loads(pickle.dumps(row)), copy.deepcopy(row)):
        assert clone == row and type(clone) is type(row)


_CODES = {"i": st.integers(-2**31, 2**31 - 1),
          "q": st.integers(-2**63, 2**63 - 1),
          "d": st.floats(allow_nan=False)}


@st.composite
def _pair_columns(draw):
    """(a pair column, the list it stands for)."""
    key_code = draw(st.sampled_from("iq"))
    value_code = draw(st.sampled_from("iqd"))
    keys = draw(st.lists(_CODES[key_code], max_size=17))
    values = draw(st.lists(_CODES[value_code], min_size=len(keys),
                           max_size=len(keys)))
    column = pairs(key_code, value_code)(
        b"".join((array(key_code, keys), array(value_code, values))))
    return column, [[k, v] for k, v in zip(keys, values)]


#: (what a row keeps, the dict it stands for): some values pair columns
_KEPT = st.dictionaries(
    _KEYS, st.one_of(_VALUES.map(lambda v: (v, v)), _pair_columns()),
    max_size=7).map(lambda d: ({k: kept for k, (kept, _) in d.items()},
                               {k: shown for k, (_, shown) in d.items()}))


@given(_KEPT)
def test_a_row_with_pair_columns_reads_as_the_nested_lists(kept_and_shown):
    kept, d = kept_and_shown
    row = row_of(kept)
    rendered = row.to_dict()
    assert rendered == d and list(rendered) == list(d)
    assert not any(isinstance(v, Pairs) for v in rendered.values())
    if all(isinstance(k, str) for k in d):
        assert json.dumps(rendered) == json.dumps(d)
    assert row == d and d == row and not (row != d) and not (d != row)
    assert row == row_of(d) and row_of(d) == row
    assert list(row.values()) == list(d.values())
    assert list(row.items()) == list(d.items())
    for key, value in d.items():
        assert row[key] == value and row.get(key) == value
        assert type(row[key]) is type(value)
    assert dict(row) == d and {**row} == d
    for clone in (pickle.loads(pickle.dumps(row)), copy.deepcopy(row)):
        assert clone == row and type(clone) is type(row)
        assert clone.to_dict() == d


@given(_pair_columns(), _pair_columns())
def test_pair_columns_compare_as_their_lists(a, b):
    (column_a, list_a), (column_b, list_b) = a, b
    assert column_a == list_a and list_a == column_a
    assert (column_a == column_b) == (list_a == list_b)
    assert (column_a != column_b) == (list_a != list_b)
    assert column_a.tolist() == list_a
    assert pickle.loads(pickle.dumps(column_a)) == column_a
    assert repr(column_a) == f"Pairs({list_a!r})"


def test_a_pair_column_is_unhashable_and_one_class_per_codec():
    column = pairs("i", "d")(b"".join((array("i", [3]), array("d", [0.5]))))
    with pytest.raises(TypeError):
        hash(column)
    assert type(column) is pairs("i", "d") is not pairs("q", "d")
    assert column != [(3, 0.5)] and column != b"" and column != "x"


@given(_DICTS, _DICTS)
def test_rows_compare_as_their_dicts(a, b):
    ra, rb = row_of(a), row_of(b)
    assert (ra == rb) == (a == b)
    assert (ra != rb) == (a != b)
    assert (ra == b) == (a == b)


@given(_DICTS)
def test_one_class_and_one_key_tuple_per_shape(d):
    first, second = row_of(d), row_of(dict(d))
    assert type(first) is type(second)
    assert first.keys() is second.keys()


def test_a_row_is_read_only_and_unhashable():
    row = row_of({"a": 1})
    with pytest.raises(TypeError):
        row["a"] = 2
    with pytest.raises(TypeError):
        hash(row)
    assert row != [1] and row != (1,) and (1,) != row


def test_a_shape_may_not_repeat_a_key():
    with pytest.raises(ValueError, match="repeat"):
        shape(("a", "a"))


def test_the_event_mirror_and_append_keep_what_record_converts():
    built, converted = AuditLog(), AuditLog()
    events = [
        ("on_admit", AdmitEvent(kind="list", key=3, level="l2", nbytes=9)),
        ("on_admit", AdmitEvent(kind="result", key=(1, 2), level="l1",
                                reason="revalidate")),
        ("on_evict", EvictEvent(kind="list", key=3, level="l1", nbytes=9)),
        ("on_flush", FlushEvent(kind="result", lba=64, nbytes=4096,
                                entries=2)),
        ("on_l2_victim", L2VictimEvent(kind="list", key=5,
                                       stage="size-match")),
    ]
    for hook, e in events:
        getattr(built, hook)(e)
    for _, e in events[:3]:
        t = "admit" if isinstance(e, AdmitEvent) else "evict"
        converted.record(t, e.kind, e.key, level=e.level, nbytes=e.nbytes,
                         reason=e.reason or ("insert" if t == "admit"
                                             else "unspecified"))
    e = events[3][1]
    converted.record("flush", e.kind, None, lba=e.lba, nbytes=e.nbytes,
                     entries=e.entries)
    e = events[4][1]
    converted.record("l2-victim", e.kind, e.key, stage=e.stage)
    built.append("list.free-space", "list", None,
                 shape(("sc_needed", "free_blocks"))((2, 1)))
    converted.record("list.free-space", "list", None, sc_needed=2,
                     free_blocks=1)
    assert ([r.to_dict() for r in built.records]
            == [r.to_dict() for r in converted.records])
    assert [type(r.data) for r in built.records] == [
        type(r.data) for r in converted.records]


def test_leaf_and_record_keep_the_same_span():
    clock = VirtualClock()
    tracer = Tracer(clock)
    tracer.record("dev.read", 0.0, 1.0, lba=4, nbytes=512)
    tracer.leaf("dev.read", 0.0, 1.0, row_of({"lba": 4, "nbytes": 512}))
    first, second = (s.to_dict() for s in tracer.spans)
    assert first.pop("span_id") + 1 == second.pop("span_id")
    assert first == second


def test_a_closed_span_refuses_item_assignment():
    tracer = Tracer(VirtualClock())
    with tracer.span("query", qid=1) as span:
        span.set(hit_level=1)  # open: a dict
    assert span.attrs == {"qid": 1, "hit_level": 1}
    with pytest.raises(TypeError):
        span.attrs["late"] = True


def test_blame_writers_render_rows(tmp_path):
    class _Task:
        name = "q"

    rec = BlameRecorder()
    task = _Task()
    rec.on_spawn(task, None, 0.0)
    rec.on_serve(task, "ssd", 0.0, 1.0, 3.0)
    rec.on_shed("q", 2.0)
    rec.on_task_end(task, 4.0)
    assert all(isinstance(r, Row) for r in rec.records)
    assert rec.records[0] == {"type": "serve", "task": 0, "resource": "ssd",
                              "enqueue_us": 0.0, "start_us": 1.0,
                              "end_us": 3.0, "wait_us": 1.0,
                              "service_us": 2.0}
    path = tmp_path / "blame.jsonl"
    rec.export_jsonl(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[1:4] == [r.to_dict() for r in list(rec.records)[:3]]
