"""Posting-list compression: d-gaps + variable-byte encoding.

Index compression is one of the throughput techniques the paper's
introduction lists alongside caching, and it is what Lucene actually
stores (vInt-coded deltas).  The codec here serialises a frequency-sorted
posting list into the byte layout a real index file would have:

* postings are stored as (doc-gap, tf) pairs within descending-tf runs —
  inside one tf run doc ids ascend, so gaps stay small;
* both fields are variable-byte coded (7 data bits per byte, high bit =
  continuation).

``encoded_size`` gives the exact on-disk size without materialising the
bytes, which lets the layout use realistic compressed extents.

The encode/decode kernels are numpy block operations (continuation-bit
masks, ``np.cumsum`` group boundaries, vectorized shift/OR accumulation)
proven byte-identical to the retained scalar reference implementations
(``_scalar_varbyte_encode`` / ``_scalar_varbyte_decode``) by the
Hypothesis suite in ``tests/test_engine_codec.py``.  Streams whose runs
could exceed 63 bits fall back to the scalar path so overflow behaviour
is exactly the reference's.
"""

from __future__ import annotations

import numpy as np

from repro._hot import HOT
from repro.engine.postings import DOC_ID_DTYPE, TF_DTYPE, PostingList

__all__ = [
    "varbyte_encode",
    "varbyte_decode",
    "varbyte_decode_stream",
    "encode_posting_list",
    "decode_posting_list",
    "encoded_size",
    "estimate_compressed_list_bytes",
]

#: Longest varbyte run the vectorized decoder handles: 9 bytes = 63 data
#: bits, the most an int64-encoded value can legitimately need.  Longer
#: runs are delegated to the scalar reference so corrupt streams fail
#: exactly as they always did (64-bit guard, OverflowError).
_MAX_VECTOR_RUN = 9

#: The largest doc id and tf a decoded posting can hold.
_DOC_ID_MAX = int(np.iinfo(DOC_ID_DTYPE).max)
_TF_MAX = int(np.iinfo(TF_DTYPE).max)

#: Mean tf the size estimate assumes for a statistical index's postings.
MEAN_TF = 2.2


# ---------------------------------------------------------------------------
# Scalar reference implementations (retained: property tests pin the
# vectorized kernels to these, and pathological streams fall back here)
# ---------------------------------------------------------------------------

def _scalar_varbyte_encode(values: np.ndarray) -> bytes:
    """Reference encoder: one value at a time, 7 bits per byte."""
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("varbyte cannot encode negative values")
    out = bytearray()
    for v in values.tolist():
        while True:
            byte = v & 0x7F
            v >>= 7
            if v:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


def _scalar_varbyte_decode(
    data: bytes, start: int = 0, count: int | None = None
) -> tuple[np.ndarray, int]:
    """Reference decoder; returns ``(values, next_offset)``.

    A stream whose *last* byte carries the continuation bit is truncated
    mid-run and always raises — even when ``count`` values were already
    decoded, so trailing garbage cannot hide behind an early stop.
    """
    if data and data[-1] & 0x80:
        raise ValueError("truncated varbyte stream")
    if count is not None and count <= 0:
        return np.empty(0, dtype=np.int64), start
    values: list[int] = []
    current = 0
    shift = 0
    offset = start
    for pos in range(start, len(data)):
        byte = data[pos]
        current |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
            if shift > 63:
                raise ValueError("varbyte run exceeds 64 bits (corrupt stream)")
        else:
            values.append(current)
            current = 0
            shift = 0
            offset = pos + 1
            if count is not None and len(values) >= count:
                break
    return np.array(values, dtype=np.int64), offset


# ---------------------------------------------------------------------------
# Vectorized kernels
# ---------------------------------------------------------------------------

def varbyte_encode(values: np.ndarray) -> bytes:
    """Variable-byte encode an array of non-negative integers."""
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return b""
    if values.min() < 0:
        raise ValueError("varbyte cannot encode negative values")
    # Bytes per value: how many 7-bit groups until the value is exhausted.
    nbytes = np.ones(values.size, dtype=np.int64)
    rest = values >> 7
    while rest.any():
        nbytes += rest > 0
        rest >>= 7
    width = int(nbytes.max())
    shifts = 7 * np.arange(width, dtype=np.int64)
    groups = ((values[:, None] >> shifts) & 0x7F).astype(np.uint8)
    position = np.arange(width)
    keep = position < nbytes[:, None]          # groups this value occupies
    cont = position < (nbytes - 1)[:, None]    # all but the last get the bit
    groups[cont] |= 0x80
    # Row-major flatten of the kept groups = little-endian groups per
    # value, values concatenated in order — the reference byte stream.
    return groups[keep].tobytes()


def varbyte_decode_stream(
    data: bytes, start: int = 0, count: int | None = None
) -> tuple[np.ndarray, int]:
    """Decode a variable-byte stream from ``start``; returns
    ``(values, next_offset)``.

    ``count`` bounds the output length; ``next_offset`` is the position
    one past the last byte consumed, so a caller can resume decoding the
    remainder without re-scanning (see :func:`decode_posting_list`).
    A stream ending mid-run (dangling continuation bit) raises even when
    ``count`` values were already produced — trailing garbage never
    hides behind an early stop.
    """
    arr = np.frombuffer(data, dtype=np.uint8, offset=start)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64), start
    if arr[-1] & 0x80:
        raise ValueError("truncated varbyte stream")
    term = arr < 0x80
    ends = np.nonzero(term)[0]
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    max_len = int(lengths.max())
    if max_len > _MAX_VECTOR_RUN:
        # >63-bit runs: the scalar reference owns the corrupt-stream
        # semantics (64-bit guard / OverflowError), byte for byte.
        return _scalar_varbyte_decode(data, start, count)
    n = ends.size
    if count is not None and count < n:
        n = max(0, count)
        ends = ends[:n]
        starts = starts[:n]
        lengths = lengths[:n]
        if n == 0:
            return np.empty(0, dtype=np.int64), start
        max_len = int(lengths.max())
    payload = (arr & 0x7F).astype(np.int64)
    values = payload[starts].copy()
    for k in range(1, max_len):
        more = lengths > k
        values[more] |= payload[starts[more] + k] << (7 * k)
    return values, start + int(ends[-1]) + 1


def varbyte_decode(data: bytes, count: int | None = None) -> np.ndarray:
    """Decode a variable-byte stream; ``count`` bounds the output length."""
    return varbyte_decode_stream(data, 0, count)[0]


# ---------------------------------------------------------------------------
# Posting-list framing
# ---------------------------------------------------------------------------

def _gaps_within_tf_runs(plist: PostingList) -> np.ndarray:
    """Doc-gap transform: within each equal-tf run, ascending doc ids are
    replaced by deltas (first of a run keeps its absolute id).  Computed
    in int64, so no difference of unsigned doc ids can wrap."""
    doc_ids, tfs = plist.doc_ids, plist.tfs
    gaps = doc_ids.astype(np.int64)
    same_run = np.flatnonzero(tfs[1:] == tfs[:-1]) + 1
    gaps[same_run] -= doc_ids[same_run - 1]
    return gaps


def _undo_gaps_within_runs(gaps: np.ndarray, tfs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_gaps_within_tf_runs` as one segmented cumsum.

    ``doc_id[i] = sum(gaps[s..i])`` where ``s`` is the start of ``i``'s
    equal-tf run, computed for every run at once: a global cumsum minus
    each run's starting prefix, broadcast per segment.
    """
    n = gaps.size
    if n == 0:
        return gaps.copy()
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = tfs[1:] != tfs[:-1]
    seg_id = np.cumsum(new_run) - 1
    seg_starts = np.nonzero(new_run)[0]
    cs = np.cumsum(gaps)
    before_seg = cs[seg_starts] - gaps[seg_starts]
    return cs - before_seg[seg_id]


def encode_posting_list(plist: PostingList) -> bytes:
    """Serialise a frequency-sorted posting list."""
    gaps = _gaps_within_tf_runs(plist)
    interleaved = np.empty(2 * len(plist), dtype=np.int64)
    interleaved[0::2] = gaps
    interleaved[1::2] = plist.tfs
    header = varbyte_encode(np.array([plist.term_id, len(plist)]))
    return header + varbyte_encode(interleaved)


def decode_posting_list(data: bytes) -> PostingList:
    """Inverse of :func:`encode_posting_list`.

    One pass over the stream: header and body decode together, so the
    body is never re-scanned.  The stream must contain *exactly* the
    header plus ``2 * n`` body values — truncation and trailing bytes
    both raise, as does a doc id or tf too wide for ``DOC_ID_DTYPE`` or
    ``TF_DTYPE``.
    """
    values, offset = varbyte_decode_stream(data)
    if values.size < 2:
        raise ValueError("truncated posting-list header")
    term_id, n = int(values[0]), int(values[1])
    HOT.postings_decoded += n
    if values.size < 2 + 2 * n:
        raise ValueError("truncated posting-list payload")
    if values.size > 2 + 2 * n or offset != len(data):
        raise ValueError("trailing bytes after posting-list payload")
    body = values[2:]
    gaps = body[0::2]
    tfs = body[1::2]
    doc_ids = _undo_gaps_within_runs(gaps, tfs)
    if n and (tfs.max() > _TF_MAX or doc_ids.max() > _DOC_ID_MAX):
        raise ValueError("posting value beyond the doc id or tf field width")
    return PostingList(term_id, doc_ids.astype(DOC_ID_DTYPE),
                       tfs.astype(TF_DTYPE))


def estimate_compressed_list_bytes(
    doc_freqs: np.ndarray, num_docs: int
) -> np.ndarray:
    """Analytic per-term compressed sizes for a statistical index.

    Mean doc-gap within a list of df postings is ~num_docs/df, so the
    gap field costs ``ceil(bits(num_docs/df)/7)`` bytes and the tf field
    ~1 byte (tf is small, ``MEAN_TF`` on average).  Matches
    :func:`encoded_size` to within a few percent on generated lists.
    """
    if num_docs <= 0:
        raise ValueError("num_docs must be positive")
    df = np.asarray(doc_freqs, dtype=np.float64)
    if (df < 1).any():
        raise ValueError("doc_freqs must be >= 1")
    mean_gap = np.maximum(1.0, num_docs / df)
    gap_bytes = np.floor(np.log2(mean_gap)) // 7 + 1
    tf_bytes = np.floor(np.log2(max(1.0, MEAN_TF))) // 7 + 1
    return (df * (gap_bytes + tf_bytes)).astype(np.int64) + 2  # +2 header


def encoded_size(plist: PostingList) -> int:
    """Exact byte size of :func:`encode_posting_list` output."""
    def vb_len(values: np.ndarray) -> int:
        values = np.maximum(np.asarray(values, dtype=np.int64), 1)
        return int(np.sum(np.floor(np.log2(values)) // 7 + 1))

    gaps = _gaps_within_tf_runs(plist)
    header = vb_len(np.array([max(1, plist.term_id), max(1, len(plist))]))
    return header + vb_len(gaps) + vb_len(plist.tfs)
