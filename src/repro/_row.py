"""Shared-key rows: the payload of every retained observer record.

A span's ``attrs``, an audit record's ``data`` and a kernel blame record
are small mappings, and a run keeps hundreds of thousands of them whose
keys repeat on every record of their kind.  A :class:`Row` keeps only
the values, as one tuple; the keys live once per *shape* (an ordered key
tuple) on the row's class, made and cached by :func:`shape`.  On CPython
3.11 a dict of one to five keys is 184 B, a row of ``n`` values
``40 + 8n`` B.

A row is a read-only mapping over its keys — ``row[k]``, ``get``, ``in``,
``len``, iteration, ``keys``/``values``/``items`` — it compares equal to
the dict with the same items, and :meth:`Row.to_dict` renders that dict,
same keys in the same order, for whoever writes or prints it.  It is
also a tuple of its values, an implementation detail: ``json.dumps``
would write a row as a list, so every writer renders first.

A hot writer builds its row straight from the values it holds, with a
module-level shape and one C call (no Python frame, no dict)::

    _ADMIT = shape(("level", "nbytes", "reason"))
    data = _ADMIT((e.level, e.nbytes, e.reason or "insert"))

and a ``**kwargs`` entry point converts its dict in its own frame::

    keys = tuple(data)
    row = (SHAPES.get(keys) or shape(keys))(data.values())

A *pair column* is the compact form of a ``[[key, value], ...]`` list —
a decision record's candidates and their scores, as two parallel
columns.  :func:`pairs` makes one :class:`Pairs` class per pair of
``array`` typecodes; an instance is one ``bytes`` object holding the
``n`` keys packed as the key typecode, then the ``n`` values packed as
the value typecode.  A writer joins two buffers it already holds
(``array.array`` or numpy arrays of those item types), C calls only::

    _SCORES = pairs("i", "i")
    scores = _SCORES(b"".join((blocks, valid_pages)))

Sixteen ``[block, valid]`` lists are 1 336 B; that column is 184 B.  A
row renders every pair column it holds as its list — in ``to_dict``,
``[]``, ``get``, ``values`` and ``items`` — and a pair column equals its
list, so a row reads and compares as the dict with the nested lists,
and pickles with its columns packed.  A row without one renders as it
always has.

This module lives at the top of the package, like :mod:`repro._hot`: it
imports nothing from ``repro``, so the device models can build their
leaf-span rows without an import cycle through ``repro.obs``.  The
public face is ``repro.obs.Row`` / ``repro.obs.row_of``.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping

__all__ = ["Row", "SHAPES", "shape", "row_of", "Pairs", "pairs"]

_item = tuple.__getitem__
_values = tuple.__iter__
_same = tuple.__eq__
_ALL = slice(None)


class Row(tuple):
    """One record's values under its shape's keys (see the module
    docstring).  Not built directly: ``shape(keys)(values)``."""

    __slots__ = ()
    #: the shape's keys, in order (each shape's class sets its own)
    fields: tuple = ()
    #: key -> position in :attr:`fields`
    _index: dict = {}

    def __getitem__(self, key):
        value = _item(self, self._index[key])
        return value.tolist() if _is_pairs(value) else value

    def get(self, key, default=None):
        i = self._index.get(key)
        if i is None:
            return default
        value = _item(self, i)
        return value.tolist() if _is_pairs(value) else value

    def __contains__(self, key) -> bool:
        return key in self._index

    def __iter__(self):
        return iter(self.fields)

    def keys(self) -> tuple:
        return self.fields

    def values(self) -> tuple:
        return _rendered(_item(self, _ALL))

    def items(self):
        return self.to_dict().items()

    def to_dict(self) -> dict:
        """The dict this row stands for, keys in shape order."""
        return dict(zip(self.fields, _rendered(_item(self, _ALL))))

    def __eq__(self, other):
        if type(other) is type(self):
            return _same(self, other)
        if isinstance(other, Mapping):
            return self.to_dict() == dict(other)
        if isinstance(other, tuple):
            return False  # a mapping, never a sequence of its values
        return NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = None  # a mapping, like the dict it stands for

    def __repr__(self) -> str:
        return f"Row({self.to_dict()!r})"

    def __reduce__(self):
        return _rebuild, (self.fields, _item(self, _ALL))


Mapping.register(Row)

#: key tuple -> its row class; one class per shape for the process
SHAPES: dict[tuple, type[Row]] = {}


def shape(fields: tuple) -> type[Row]:
    """The row class for ``fields`` (made once, then cached)."""
    cls = SHAPES.get(fields)
    if cls is None:
        index = {key: i for i, key in enumerate(fields)}
        if len(index) != len(fields):
            raise ValueError(f"row keys repeat: {fields!r}")
        cls = SHAPES[fields] = type("Row", (Row,), {
            "__slots__": (), "fields": fields, "_index": index})
    return cls


def row_of(data: Mapping) -> Row:
    """``data`` as a row (its keys in iteration order)."""
    keys = tuple(data)
    return (SHAPES.get(keys) or shape(keys))(data.values())


def _rebuild(fields: tuple, values: tuple) -> Row:
    return shape(fields)(values)


class Pairs(bytes):
    """A pair column (see the module docstring).  Not built directly:
    ``pairs(key_code, value_code)(packed)``."""

    __slots__ = ()
    #: ``array`` typecodes of the keys and of the values (per class)
    key_code: str = ""
    value_code: str = ""
    #: bytes of one key, and of one key plus one value
    _key_size: int = 0
    _pair_size: int = 1

    def tolist(self) -> list:
        """The ``[[key, value], ...]`` list this column stands for."""
        view = memoryview(self)
        cut = len(self) // self._pair_size * self._key_size
        return list(map(list, zip(view[:cut].cast(self.key_code).tolist(),
                                  view[cut:].cast(self.value_code).tolist())))

    def __eq__(self, other):
        if isinstance(other, Pairs):
            return self.tolist() == other.tolist()
        if isinstance(other, list):
            return self.tolist() == other
        return NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = None  # a list, like the one it stands for

    def __repr__(self) -> str:
        return f"Pairs({self.tolist()!r})"

    def __reduce__(self):
        return _rebuild_pairs, (self.key_code, self.value_code, bytes(self))


_is_pairs = Pairs.__instancecheck__

#: (key typecode, value typecode) -> its pair-column class
CODECS: dict[tuple, type[Pairs]] = {}


def pairs(key_code: str, value_code: str) -> type[Pairs]:
    """The pair-column class packing keys as ``key_code`` and values as
    ``value_code`` (``array`` typecodes; made once, then cached)."""
    codes = (key_code, value_code)
    cls = CODECS.get(codes)
    if cls is None:
        key_size = array(key_code).itemsize
        cls = CODECS[codes] = type("Pairs", (Pairs,), {
            "__slots__": (), "key_code": key_code, "value_code": value_code,
            "_key_size": key_size,
            "_pair_size": key_size + array(value_code).itemsize})
    return cls


def _rebuild_pairs(key_code: str, value_code: str, packed: bytes) -> Pairs:
    return pairs(key_code, value_code)(packed)


def _rendered(values: tuple) -> tuple:
    """``values`` with every pair column in it rendered as its list."""
    if any(map(_is_pairs, values)):
        return tuple([v.tolist() if _is_pairs(v) else v for v in values])
    return values
