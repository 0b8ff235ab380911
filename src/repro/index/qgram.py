"""Numpy encodings of q-gram profiles and strings for the vectorized join.

Classic similarity-join filter: if ``lev(a, b) <= k`` then the distinct
q-gram sets of *a* and *b* share at least ``max(|G_a|, |G_b|) - k*q``
grams, because one edit destroys at most ``q`` distinct gram types.
:func:`gram_matrix` and :func:`packed_overlap` evaluate that test for
many value pairs at once; :func:`char_arrays` and :func:`batched_myers`
settle the survivors with Myers' bit-parallel edit distance.
:func:`batched_myers_texts` scores many texts against every encoded
value at once — the texts x values shape of target-tree search and
Greedy-M's conflict scoring. Both run the one recurrence of
:func:`_myers_scan`.
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


def _encode(
    values: Sequence[str],
) -> Tuple[Tuple[Any, Any, Dict[str, int]], Tuple[Any, Any, Any]]:
    """``(lengths, peq, vocabulary)`` of :func:`char_arrays`, plus each
    character's value, position and code as flat arrays."""
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
    peq = np.zeros((len(values), len(vocabulary) + 1), dtype=np.uint64)
    narrow = lengths[rows] <= 63
    np.bitwise_or.at(
        peq,
        (rows[narrow], inverse[narrow]),
        np.left_shift(np.uint64(1), cols[narrow].astype(np.uint64)),
    )
    return (lengths, peq, vocabulary), (rows, cols, inverse)


def peq_table(values: Sequence[str]) -> Tuple[Any, Any, Dict[str, int]]:
    """``(lengths, peq, vocabulary)`` of :func:`char_arrays`, without the
    character matrix only :func:`batched_myers` reads (the value tables
    of :func:`batched_myers_texts` need just these)."""
    return _encode(values)[0]


def char_arrays(values: Sequence[str]) -> Tuple[Any, Any, Any, Dict[str, int]]:
    """Pad-encoded character matrix + per-value Myers PEQ tables.

    Returns ``(codes, lengths, peq, vocabulary)`` over a shared character
    vocabulary (character -> code): ``codes`` is the ``int32`` value x
    position matrix (zero-padded), ``lengths`` the ``int64`` value
    lengths, and ``peq`` the per-value Myers bitmask table —
    ``peq[v][c]`` has bit ``j`` set when character ``c`` occurs at
    position ``j`` of value ``v``. ``peq`` has one column beyond the
    vocabulary, always zero: the code of a character no value contains
    (see :func:`batched_myers_texts`). Rows of values longer than 63
    characters stay zero: their bitvector does not fit one machine word,
    so the batched kernels send the pairs whose pattern is that wide
    back to the scalar kernel.
    """
    (lengths, peq, vocabulary), (rows, cols, inverse) = _encode(values)
    codes = np.zeros((len(values), max(int(lengths.max(initial=0)), 1)), dtype=np.int32)
    codes[rows, cols] = inverse
    return codes, lengths, peq, vocabulary


def _myers_scan(m: Any, n: Any, eq_at: Callable[[int, int], Any]) -> Any:
    """Myers' bit-parallel column update, elementwise over a batch.

    The same recurrence as :class:`repro.core.distances.PreparedKernel`
    as ``uint64`` operations. The state has one row per text, ``n[i]``
    characters long, with ``n`` sorted descending: at column ``j`` the
    still-active texts are exactly the prefix ``[0:active]``, so state
    updates are views and a retired text keeps its last column. For
    pairs, ``m`` holds one pattern length per text (``m.shape ==
    n.shape``); for a texts x patterns grid, ``m`` is one ``(1, P)`` row
    and the state is ``len(n) x P``. Pattern lengths are at most 63.
    ``eq_at(active, j)`` returns the PEQ masks of each active text's
    character ``j``, shaped like the active state.

    The distance is read once from that last column,
    ``D[m][n] = n + #(+1 vertical deltas) - #(-1 vertical deltas)``,
    instead of tracking row ``m`` column by column. No step masks the
    words to ``m`` bits: additions carry and shifts move only upward,
    so bits above ``m - 1`` never reach the bits that are counted.
    """
    one = np.uint64(1)
    shape = n.shape + m.shape[1:]
    pv = np.full(shape, ~np.uint64(0))
    mv = np.zeros(shape, dtype=np.uint64)
    pv_s, mv_s = pv, mv
    counts = np.bincount(n, minlength=int(n[0]) + 1).tolist()
    active = len(n)
    for col in range(int(n[0])):
        if counts[col]:
            # texts exactly `col` characters long retire
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
    text_lengths = n.reshape(shape[:1] + (1,) * (len(shape) - 1))
    return text_lengths + plus.astype(np.int64) - minus


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


#: byte budget of one ``uint64`` texts x values state array of
#: :func:`batched_myers_texts` (the scan holds a handful of them at
#: once): it bounds peak memory and keeps the state in cache (64-128 KiB
#: ran fastest on 60-1000 values of 6-20 characters); no distance
#: depends on it
_TEXT_STATE_BYTES = 1 << 17


def batched_myers_texts(peq_t: Any, lengths: Any, vocabulary: Dict[str, int],
                        texts: Sequence[str]) -> Any:
    """Exact Levenshtein distances from every text to every value.

    *peq_t* is the character-major PEQ table of the values
    (``char_arrays(values)[2].T``, contiguous): each text character
    selects one row of masks, one per value. The values are the
    patterns; the texts, of any length and need not be values, run
    column by column as one ``len(texts) x len(values)`` state, longest
    first, with the still-active texts a shrinking prefix. Characters
    outside *vocabulary* read the all-zero last row. Text chunks keep
    each state array under ``_TEXT_STATE_BYTES``. Returns an ``int64``
    matrix; ``-1`` marks the columns of values over 63 characters (one
    word cannot hold them — the caller settles those with the scalar
    kernel).
    """
    out = np.empty((len(texts), len(lengths)), dtype=np.int64)
    sizes = np.array([len(text) for text in texts], dtype=np.int64)
    order = np.argsort(-sizes, kind="stable")
    unknown = peq_t.shape[0] - 1
    patterns = lengths.reshape(1, -1)
    step = max(1, _TEXT_STATE_BYTES // (8 * max(len(lengths), 1)))
    for start in range(0, len(texts), step):
        rows = order[start: start + step]
        n = sizes[rows]
        codes = np.zeros((len(rows), max(int(n[0]), 1)), dtype=np.intp)
        for row, text in enumerate(texts[i] for i in rows.tolist()):
            codes[row, : len(text)] = [vocabulary.get(ch, unknown) for ch in text]
        out[rows] = _myers_scan(
            patterns, n, lambda active, col: peq_t[codes[:active, col]]
        )
    out[:, lengths > 63] = -1
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
