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


def gram_matrix(profiles: Sequence[Set[str]]) -> Tuple[Any, Any]:
    """Bit-pack distinct-gram profiles into ``uint64`` words, word-major.

    *profiles* is one distinct-q-gram set per dictionary id. Returns
    ``(packed, sizes)``: ``packed`` is the boolean value x gram matrix,
    columns assigned in first-occurrence order over a shared vocabulary,
    packed 64 columns to a ``uint64`` word and stored transposed —
    ``packed[w, v]`` is word ``w`` of value ``v`` (``ceil(G/64)`` rows),
    so :func:`packed_overlap` gathers one contiguous row per word;
    ``sizes`` are the ``int64`` profile sizes.
    """
    vocabulary: Dict[str, int] = {}
    columns: List[int] = []
    sizes = np.zeros(len(profiles), dtype=np.int64)
    for row, profile in enumerate(profiles):
        columns.extend(
            vocabulary.setdefault(gram, len(vocabulary))
            for gram in sorted(profile)
        )
        sizes[row] = len(profile)
    gram_ids = np.asarray(columns, dtype=np.uint64)
    width = (max(len(vocabulary), 1) + 63) // 64
    packed = np.zeros((width, len(profiles)), dtype=np.uint64)
    rows = np.repeat(np.arange(len(profiles), dtype=np.int64), sizes)
    np.bitwise_or.at(
        packed.reshape(-1),
        (gram_ids >> np.uint64(6)).astype(np.int64) * len(profiles) + rows,
        np.left_shift(np.uint64(1), gram_ids & np.uint64(63)),
    )
    return packed, sizes


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
    lengths = np.array([len(value) for value in values], dtype=np.int64)
    # every character as one code point, all values back to back
    flat = np.frombuffer(
        "".join(values).encode("utf-32-le", "surrogatepass"), dtype=np.uint32
    )
    chars, inverse = np.unique(flat, return_inverse=True)
    vocabulary = {chr(ch): code for code, ch in enumerate(chars.tolist())}
    rows = np.repeat(np.arange(len(values), dtype=np.int64), lengths)
    cols = np.arange(flat.size, dtype=np.int64) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    codes = np.zeros((len(values), max(int(lengths.max(initial=0)), 1)), dtype=np.int32)
    codes[rows, cols] = inverse
    peq = np.zeros((len(values), len(vocabulary) + 1), dtype=np.uint64)
    narrow = lengths[rows] <= 63
    np.bitwise_or.at(
        peq,
        (rows[narrow], inverse[narrow]),
        np.left_shift(np.uint64(1), cols[narrow].astype(np.uint64)),
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
    plus = np.bitwise_count(pv & full)
    minus = np.bitwise_count(mv & full)
    return n + plus.astype(np.int64) - minus


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

    Operates on the word-major ``uint64`` matrix from :func:`gram_matrix`:
    per word, one gather of each side, an AND and ``np.bitwise_count``,
    accumulated over the words. The caller chunks the pair arrays to
    bound the transient gathers.
    """
    overlap = np.zeros(len(left), dtype=np.int64)
    for words in packed:
        overlap += np.bitwise_count(words[left] & words[right])
    return overlap
