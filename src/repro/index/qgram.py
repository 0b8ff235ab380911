"""Numpy encodings of q-gram profiles and strings for the vectorized join.

Classic similarity-join filter: if ``lev(a, b) <= k`` then the distinct
q-gram sets of *a* and *b* share at least ``max(|G_a|, |G_b|) - k*q``
grams, because one edit destroys at most ``q`` distinct gram types.
:func:`gram_matrix` and :func:`packed_overlap` evaluate that test for
many value pairs at once; :func:`char_arrays` and :func:`batched_myers`
settle the survivors with Myers' bit-parallel edit distance.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set, Tuple

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


def char_arrays(values: Sequence[str]) -> Tuple[Any, Any, Any]:
    """Pad-encoded character matrix + per-value Myers PEQ tables.

    Returns ``(codes, lengths, peq)`` over a shared character
    vocabulary: ``codes`` is the ``int32`` value x position matrix
    (zero-padded), ``lengths`` the ``int64`` value lengths, and ``peq``
    the per-value Myers bitmask table — ``peq[v][c]`` has bit ``j`` set
    when character ``c`` occurs at position ``j`` of value ``v``. Rows
    of values longer than 63 characters stay zero: their bitvector does
    not fit one machine word, so :func:`batched_myers` routes pairs
    where *both* sides are that wide back to the scalar kernel.
    """
    vocabulary: Dict[str, int] = {}
    maxlen = max((len(value) for value in values), default=0)
    codes = np.zeros((len(values), max(maxlen, 1)), dtype=np.int32)
    lengths = np.zeros(len(values), dtype=np.int64)
    for row, value in enumerate(values):
        lengths[row] = len(value)
        for col, ch in enumerate(value):
            codes[row, col] = vocabulary.setdefault(ch, len(vocabulary))
    peq = np.zeros((len(values), max(len(vocabulary), 1)), dtype=np.uint64)
    one = np.uint64(1)
    for row, value in enumerate(values):
        if len(value) > 63:
            continue
        target = peq[row]
        for col, ch in enumerate(value):
            target[vocabulary[ch]] |= one << np.uint64(col)
    return codes, lengths, peq


def batched_myers(codes: Any, lengths: Any, peq: Any, lefts: Any,
                  rights: Any) -> Any:
    """Exact Levenshtein distances for value-id pairs, batched.

    Myers' bit-parallel column update (the same recurrence as
    :class:`repro.core.distances.PreparedKernel`) run as elementwise
    ``uint64`` operations across the whole batch: each pair's pattern is
    its shorter value, the texts are scanned column-by-column with pairs
    sorted by text length so the active set is always a prefix slice.
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
    # sort by text length descending: at column j the still-active pairs
    # are exactly the prefix [0:count_j], so state updates are views
    order = run[np.argsort(-n[run], kind="stable")]
    pattern, text, m, n = pattern[order], text[order], m[order], n[order]
    m64 = m.astype(np.uint64)
    one = np.uint64(1)
    full = (one << m64) - one  # m <= 63 keeps every shift in-word
    last_shift = (m64 - one).astype(np.uint64)
    pv = full.copy()
    mv = np.zeros(len(order), dtype=np.uint64)
    score = m.copy()
    longest = int(n[0])
    counts = np.bincount(n, minlength=longest + 1)
    active = len(order)
    for col in range(longest):
        # pairs whose text is exactly `col` characters long retire now
        active -= int(counts[col])
        sl = slice(0, active)
        eq = peq[pattern[sl], codes[text[sl], col]]
        pv_s, mv_s = pv[sl], mv[sl]
        xv = eq | mv_s
        xh = (((eq & pv_s) + pv_s) ^ pv_s) | eq
        ph = mv_s | (~(xh | pv_s) & full[sl])
        mh = pv_s & xh
        score[sl] += ((ph >> last_shift[sl]) & one).astype(np.int64)
        score[sl] -= ((mh >> last_shift[sl]) & one).astype(np.int64)
        ph = ((ph << one) | one) & full[sl]
        mh = (mh << one) & full[sl]
        pv[sl] = mh | (~(xv | ph) & full[sl])
        mv[sl] = ph & xv
    out[order] = score
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
