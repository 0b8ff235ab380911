"""Numpy encodings of q-gram profiles and strings for the vectorized join.

Classic similarity-join filter: if ``lev(a, b) <= k`` then the distinct
q-gram sets of *a* and *b* share at least ``max(|G_a|, |G_b|) - k*q``
grams, because one edit destroys at most ``q`` distinct gram types.
:func:`gram_matrix` and :func:`packed_overlap` evaluate that test for
many value pairs at once; :func:`char_arrays` and :func:`batched_myers`
settle the survivors with Myers' bit-parallel edit distance.
:func:`batched_myers_query` scores one query against every encoded
value — the target tree's one-vs-many shape.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Set, Tuple

import numpy as np

_POPCOUNT_TABLE: Any = None


def popcount_table() -> Any:
    """256-entry ``uint8`` popcount lookup table.

    Portable across numpy versions (``np.bitwise_count`` only exists from
    numpy 2.0); indexing a byte matrix through the table and summing rows
    counts set bits at memory bandwidth.
    """
    global _POPCOUNT_TABLE
    if _POPCOUNT_TABLE is None:
        _POPCOUNT_TABLE = np.array(
            [bin(i).count("1") for i in range(256)], dtype=np.uint8
        )
    return _POPCOUNT_TABLE


def gram_matrix(profiles: Sequence[Set[str]]) -> Tuple[Any, Any, Any, Any]:
    """Encode distinct-gram profiles as a CSR matrix plus a packed bitset.

    *profiles* is one distinct-q-gram set per dictionary id. Returns
    ``(indptr, gram_ids, packed, sizes)``:

    * ``indptr`` / ``gram_ids`` — CSR rows of the boolean value x gram
      matrix: value *v*'s grams are ``gram_ids[indptr[v]:indptr[v+1]]``,
      columns assigned in first-occurrence order over a shared
      vocabulary;
    * ``packed`` — the same matrix bit-packed to ``uint8``
      (``ceil(G/8)`` bytes per row) for pairwise overlap popcounts;
    * ``sizes`` — ``int64`` profile sizes (the CSR row lengths).
    """
    vocabulary: Dict[str, int] = {}
    columns: List[int] = []
    indptr = np.zeros(len(profiles) + 1, dtype=np.int64)
    for row, profile in enumerate(profiles):
        columns.extend(
            vocabulary.setdefault(gram, len(vocabulary))
            for gram in sorted(profile)
        )
        indptr[row + 1] = len(columns)
    gram_ids = np.asarray(columns, dtype=np.int64)
    width = (max(len(vocabulary), 1) + 7) // 8
    packed = np.zeros((len(profiles), width), dtype=np.uint8)
    bits = (1 << (gram_ids & 7)).astype(np.uint8)
    bytes_of = gram_ids >> 3
    for row in range(len(profiles)):
        lo, hi = indptr[row], indptr[row + 1]
        np.bitwise_or.at(packed[row], bytes_of[lo:hi], bits[lo:hi])
    return indptr, gram_ids, packed, np.diff(indptr)


def char_arrays(values: Sequence[str]) -> Tuple[Any, Any, Any, Dict[str, int]]:
    """Pad-encoded character matrix + per-value Myers PEQ tables.

    Returns ``(codes, lengths, peq, vocabulary)`` over a shared character
    vocabulary (character -> code): ``codes`` is the ``int32`` value x
    position matrix (zero-padded), ``lengths`` the ``int64`` value
    lengths, and ``peq`` the per-value Myers bitmask table —
    ``peq[v][c]`` has bit ``j`` set when character ``c`` occurs at
    position ``j`` of value ``v``. ``peq`` has one column beyond the
    vocabulary, always zero: the code of a character no value contains
    (see :func:`batched_myers_query`). Rows of values longer than 63
    characters stay zero: their bitvector does not fit one machine word,
    so the batched kernels route pairs where *both* sides are that wide
    back to the scalar kernel.
    """
    vocabulary: Dict[str, int] = {}
    lengths = np.array([len(value) for value in values], dtype=np.int64)
    codes = np.zeros((len(values), max(int(lengths.max(initial=0)), 1)), dtype=np.int32)
    for row, value in enumerate(values):
        codes[row, : len(value)] = [
            vocabulary.setdefault(ch, len(vocabulary)) for ch in value
        ]
    peq = np.zeros((len(values), len(vocabulary) + 1), dtype=np.uint64)
    rows, cols = np.nonzero(
        (np.arange(codes.shape[1]) < lengths[:, None]) & (lengths[:, None] <= 63)
    )
    np.bitwise_or.at(
        peq,
        (rows, codes[rows, cols]),
        np.left_shift(np.uint64(1), cols.astype(np.uint64)),
    )
    return codes, lengths, peq, vocabulary


def _myers_scan(m: Any, n: Any, eq_at: Callable[[int, int], Any]) -> Any:
    """Myers' bit-parallel column update, elementwise over a batch.

    The same recurrence as :class:`repro.core.distances.PreparedKernel`
    as ``uint64`` operations: pair ``i`` has a pattern of ``m[i]``
    characters (``1 <= m[i] <= 63``) and a text of ``n[i]``, with ``n``
    sorted descending — at column ``j`` the still-active pairs are
    exactly the prefix ``[0:active]``, so state updates are views and a
    retired pair keeps its last column. ``eq_at(active, j)`` returns the
    PEQ masks of each active pair's text character ``j``.

    The distance is read once from that last column,
    ``D[m][n] = n + #(+1 vertical deltas) - #(-1 vertical deltas)``,
    instead of tracking row ``m`` column by column. No step masks the
    words to ``m`` bits: additions carry and shifts move only upward,
    so bits above ``m - 1`` never reach the bits that are counted.
    """
    one = np.uint64(1)
    pv = np.full(len(m), ~np.uint64(0))
    mv = np.zeros(len(m), dtype=np.uint64)
    pv_s, mv_s = pv, mv
    counts = np.bincount(n, minlength=int(n[0]) + 1).tolist()
    active = len(m)
    for col in range(int(n[0])):
        if counts[col]:
            # pairs whose text is exactly `col` characters long retire
            active -= counts[col]
            pv_s, mv_s = pv[:active], mv[:active]
        eq = eq_at(active, col)
        xv = eq | mv_s
        xh = (((eq & pv_s) + pv_s) ^ pv_s) | eq
        ph = mv_s | ~(xh | pv_s)
        mh = pv_s & xh
        ph = (ph << one) | one
        np.bitwise_or(mh << one, ~(xv | ph), out=pv_s)
        np.bitwise_and(ph, xv, out=mv_s)
    full = (one << m.astype(np.uint64)) - one
    words = np.stack([pv & full, mv & full])
    bits = popcount_table()[words.view(np.uint8)].reshape(2, -1, 8)
    plus, minus = bits.sum(axis=2, dtype=np.int64)
    return n + plus - minus


def batched_myers(codes: Any, lengths: Any, peq: Any, lefts: Any,
                  rights: Any) -> Any:
    """Exact Levenshtein distances for value-id pairs, batched.

    Each pair's pattern is its shorter value; :func:`_myers_scan` runs
    the texts column-by-column with pairs sorted by text length.
    Returns exact distances; ``-1`` marks pairs whose shorter value
    exceeds 63 characters (one-word bitvectors cannot hold them — the
    caller settles those with the scalar kernel).
    """
    ll, lr = lengths[lefts], lengths[rights]
    swap = lr < ll
    pattern = np.where(swap, rights, lefts)
    text = np.where(swap, lefts, rights)
    m, n = lengths[pattern], lengths[text]
    out = np.full(len(pattern), -1, dtype=np.int64)
    out[m == 0] = n[m == 0]
    run = np.nonzero((m > 0) & (m <= 63))[0]
    if not run.size:
        return out
    order = run[np.argsort(-n[run], kind="stable")]
    pattern, text = pattern[order], text[order]
    out[order] = _myers_scan(
        m[order],
        n[order],
        lambda active, col: peq[pattern[:active], codes[text[:active], col]],
    )
    return out


def batched_myers_query(codes: Any, lengths: Any, peq: Any,
                        vocabulary: Dict[str, int], query: str) -> Any:
    """Exact Levenshtein distances from *query* to every encoded value.

    The one-vs-many twin of :func:`batched_myers` over the arrays of
    :func:`char_arrays`; *query* need not be one of the values. Up to 63
    characters the query is the pattern of every pair (its PEQ row is
    built here over the shared vocabulary) and the values are the texts,
    whatever their length. A longer query is the common text instead,
    with its characters outside the vocabulary reading the all-zero PEQ
    column; ``-1`` then marks values that also exceed 63 characters.
    """
    size = len(query)
    if size == 0:
        return lengths.copy()
    if size <= 63:
        query_peq = np.zeros(peq.shape[1], dtype=np.uint64)
        for col, ch in enumerate(query):
            code = vocabulary.get(ch)
            if code is not None:
                query_peq[code] |= np.uint64(1 << col)
        out = np.zeros(len(lengths), dtype=np.int64)
        order = np.argsort(-lengths, kind="stable")
        n = lengths[order]
        texts = codes[order]
        run = n > 0
        if run.any():
            out[order[run]] = _myers_scan(
                np.full(int(run.sum()), size, dtype=np.int64),
                n[run],
                lambda active, col: query_peq[texts[:active, col]],
            )
        out[lengths == 0] = size
        return out
    out = np.full(len(lengths), -1, dtype=np.int64)
    out[lengths == 0] = size
    run = np.nonzero((lengths > 0) & (lengths <= 63))[0]
    if run.size:
        text = [vocabulary.get(ch, peq.shape[1] - 1) for ch in query]
        out[run] = _myers_scan(
            lengths[run],
            np.full(len(run), size, dtype=np.int64),
            lambda active, col: peq[run, text[col]],
        )
    return out


def packed_overlap(packed: Any, left: Any, right: Any) -> Any:
    """Distinct-gram overlap ``|G_u & G_v|`` for each pair ``(left[i], right[i])``.

    Operates on the bit-packed matrix from :func:`gram_matrix`. The
    caller chunks the pair arrays to bound the transient
    ``len(pairs) x row_bytes`` gather.
    """
    table = popcount_table()
    inter = np.bitwise_and(packed[left], packed[right])
    return table[inter].sum(axis=1, dtype=np.int64)
