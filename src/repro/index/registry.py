"""Per-relation shared attribute indexes for FT-violation detection.

Several FDs of a workload typically share attributes (the FD-graph
overlap the paper exploits in Theorems 5-7). :class:`AttributeIndexRegistry`
hoists the detection structures to the attribute level: the **distinct
coerced values** of an attribute are the same for every FD containing
it (patterns cover all tuples), so one canonical index per attribute
serves every join, with a per-call code translation between the
canonical numbering and each FD's local value ids.

Shared per string attribute:

* the q-gram profiles, gram frequencies, length buckets, and inverted
  posting lists (built lazily on the first one-vs-many probe),
* the packed gram and character matrices of the vectorized join,
* the exact settle verdicts ``lev(a, b) <= k`` per value pair and
  budget, and the exact edit counts the bounded kernel proved.

Shared per numeric attribute: the sorted value order.

Everything the registry returns is a value-level fact, so detection
output is byte-identical with and without sharing.

The registry validates its entries per call (length equality plus
membership of every local value) and rebuilds on mismatch, so it stays
sound when the relation evolves between joins — e.g. the sequential
single-FD repair loop. Builds, reuses, and settle kernel calls are
counted and surface in ``ViolationGraph.join_counters`` /
``ExecutionStats`` / CLI ``--stats``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.distances import PreparedKernel, qgrams
from repro.index.blocking import _BUDGET_EPS
from repro.index.qgram import batched_myers, char_arrays, gram_matrix


class _StringIndex:
    """Canonical q-gram structures over one attribute's distinct values."""

    __slots__ = (
        "q",
        "values",
        "code_of",
        "lengths",
        "_profiles",
        "_frequency",
        "_by_length",
        "_postings",
        "settled",
        "exact_edits",
        "_gram_arrays",
        "_char_arrays",
    )

    def __init__(self, values: Sequence[str], q: int) -> None:
        self.q = q
        self.values: List[str] = list(values)
        self.code_of: Dict[str, int] = {
            value: code for code, value in enumerate(self.values)
        }
        self.lengths: List[int] = [len(value) for value in self.values]
        self._profiles: Optional[List[frozenset]] = None
        self._frequency: Optional[Counter] = None
        self._by_length: Optional[Dict[int, List[int]]] = None
        self._postings: Optional[Dict[int, Dict[str, List[int]]]] = None
        #: settle verdicts ``lev(values[u], values[v]) <= k`` keyed (u, v, k)
        self.settled: Dict[Tuple[int, int, int], bool] = {}
        #: exact edit counts keyed (min(u, v), max(u, v)); only values a
        #: bounded kernel call proved exact are ever stored here
        self.exact_edits: Dict[Tuple[int, int], int] = {}
        self._gram_arrays: Optional[Tuple[Any, Any, Any, Any, Any]] = None
        self._char_arrays: Optional[Tuple[Any, Any, Any]] = None

    def _ensure_grams(self) -> None:
        if self._profiles is not None:
            return
        self._profiles = [frozenset(qgrams(value, self.q)) for value in self.values]
        frequency: Counter = Counter()
        for profile in self._profiles:
            frequency.update(profile)
        self._frequency = frequency
        by_length: Dict[int, List[int]] = {}
        postings: Dict[int, Dict[str, List[int]]] = {}
        for code, length in enumerate(self.lengths):
            by_length.setdefault(length, []).append(code)
            bucket = postings.setdefault(length, {})
            for gram in self._profiles[code]:
                bucket.setdefault(gram, []).append(code)
        self._by_length = by_length
        self._postings = postings

    def probe(self, query: str, ratio: float) -> List[int]:
        """Canonical codes possibly within ``ratio`` edits of *query*.

        The pigeonhole prefix filter (any ``k*q + 1`` grams of the query must hit a
        value within ``k`` edits, since one edit destroys at most ``q``
        grams), applied from a single probe value that need not be in
        the index. The result is a superset of the values within
        ``floor(ratio * max_len + eps)`` edits — callers verify exactly.
        """
        self._ensure_grams()
        eps = _BUDGET_EPS
        q = self.q
        la = len(query)
        profile = frozenset(qgrams(query, q))
        frequency = self._frequency
        by_length = self._by_length
        postings = self._postings
        assert frequency is not None and by_length is not None
        assert postings is not None
        prefix_source = sorted(profile, key=lambda g: (frequency[g], g))
        out: Set[int] = set()
        for lb, bucket_codes in by_length.items():
            k = int(ratio * (la if la > lb else lb) + eps)
            if (la - lb if la > lb else lb - la) > k:
                continue
            if len(prefix_source) <= k * q:
                out.update(bucket_codes)
            else:
                bucket = postings[lb]
                for gram in prefix_source[: k * q + 1]:
                    out.update(bucket.get(gram, ()))
        return sorted(out)

    def gram_arrays(self) -> Tuple[Any, Any, Any, Any, Any]:
        """Numpy encodings for the vectorized join, built lazily once.

        Returns ``(indptr, gram_ids, packed, sizes, lengths)``: the CSR
        and bit-packed q-gram matrices from
        :func:`repro.index.qgram.gram_matrix` over the canonical
        profiles, plus the canonical value lengths as an ``int64``
        array.
        """
        if self._gram_arrays is None:
            self._ensure_grams()
            assert self._profiles is not None
            indptr, gram_ids, packed, sizes = gram_matrix(self._profiles)
            lengths = np.asarray(self.lengths, dtype=np.int64)
            self._gram_arrays = (indptr, gram_ids, packed, sizes, lengths)
        return self._gram_arrays

    def char_arrays(self) -> Tuple[Any, Any, Any]:
        """Character codes + Myers PEQ tables for the batched kernel.

        Lazily built ``(codes, lengths, peq)`` from
        :func:`repro.index.qgram.char_arrays` over the canonical values.
        """
        if self._char_arrays is None:
            self._char_arrays = char_arrays(self.values)
        return self._char_arrays


class _NumericIndex:
    """Canonical sorted order of one numeric attribute."""

    __slots__ = ("values", "code_of", "order", "_sorted")

    def __init__(self, values: Sequence[float]) -> None:
        self.values: List[float] = list(values)
        self.code_of: Dict[float, int] = {
            value: code for code, value in enumerate(self.values)
        }
        self.order: List[int] = sorted(
            range(len(self.values)), key=lambda code: self.values[code]
        )
        self._sorted: Optional[List[float]] = None

    def probe(self, query: float, band: float) -> List[int]:
        """Canonical codes with ``|value - query| <= band`` (bisected)."""
        if self._sorted is None:
            self._sorted = [self.values[code] for code in self.order]
        from bisect import bisect_left, bisect_right

        lo = bisect_left(self._sorted, query - band)
        hi = bisect_right(self._sorted, query + band)
        return self.order[lo:hi]

class AttributeIndexRegistry:
    """Shared per-attribute index store with build/reuse accounting.

    One instance per relation (or per repair run): pass it to every
    :class:`repro.index.simjoin.SimilarityJoin` so FDs sharing an
    attribute share its indexes. Thread-confined like
    :class:`~repro.core.distances.DistanceModel` — parallel workers each
    hold their own.
    """

    def __init__(self, q: int = 2) -> None:
        self.q = q
        self.index_builds = 0
        self.index_reuses = 0
        #: one-vs-many candidate probes (serving path; see qgram_probe)
        self.index_probes = 0
        #: settle kernel invocations (cache-missed ``lev <= k`` verdicts)
        self.kernel_calls = 0
        self._strings: Dict[str, _StringIndex] = {}
        self._numerics: Dict[str, _NumericIndex] = {}
        self._kernels: Dict[str, PreparedKernel] = {}

    def counters(self) -> Dict[str, int]:
        """The accounting triple, for stats plumbing."""
        return {
            "index_builds": self.index_builds,
            "index_reuses": self.index_reuses,
            "kernel_calls": self.kernel_calls,
        }

    # ------------------------------------------------------------------
    def string_index(
        self, attribute: str, values: Sequence[str]
    ) -> Tuple[_StringIndex, List[int]]:
        """The canonical index for *attribute* plus local->canonical codes.

        Reuses the cached entry when *values* is a bijection of its
        canonical set (same length, every value known); rebuilds
        otherwise — the relation changed under the registry, e.g. between
        the passes of a sequential repair loop.
        """
        entry = self._strings.get(attribute)
        if entry is not None and len(entry.values) == len(values):
            code_of = entry.code_of
            codes: List[int] = []
            for value in values:
                code = code_of.get(value)
                if code is None:
                    break
                codes.append(code)
            else:
                self.index_reuses += 1
                return entry, codes
        entry = _StringIndex(values, self.q)
        self._strings[attribute] = entry
        self.index_builds += 1
        return entry, list(range(len(values)))

    def numeric_index(
        self, attribute: str, values: Sequence[float]
    ) -> Tuple[_NumericIndex, List[int]]:
        """Numeric twin of :meth:`string_index` (same validation rule)."""
        entry = self._numerics.get(attribute)
        if entry is not None and len(entry.values) == len(values):
            code_of = entry.code_of
            codes = []
            for value in values:
                code = code_of.get(value)
                if code is None:
                    break
                codes.append(code)
            else:
                self.index_reuses += 1
                return entry, codes
        entry = _NumericIndex(values)
        self._numerics[attribute] = entry
        self.index_builds += 1
        return entry, list(range(len(values)))

    # ------------------------------------------------------------------
    def prepared_kernel(self, text: str) -> PreparedKernel:
        """The interned Myers preparation for *text* (built once)."""
        prepared = self._kernels.get(text)
        if prepared is None:
            prepared = PreparedKernel(text)
            self._kernels[text] = prepared
        return prepared

    def bounded_edits_many(
        self,
        entry: _StringIndex,
        lefts: Sequence[int],
        rights: Sequence[int],
        budgets: Sequence[int],
    ) -> List[int]:
        """Batched bounded edit distances between canonical value pairs.

        Each result honours the kernel contract: exact iff it does not
        exceed its budget. Misses run through
        :func:`repro.index.qgram.batched_myers` — the bit-parallel column
        update as elementwise ``uint64`` ops over the whole batch; pairs
        the one-word bitvector cannot hold (both sides over 63
        characters) are grouped by left value and settled through one
        prepared :meth:`PreparedKernel.compare_many` per group. Exact
        results are cached in ``entry.exact_edits`` so the blocker settle
        and the verify pass never re-run a kernel on the same distinct
        pair.
        """
        values = entry.values
        edits_cache = entry.exact_edits
        settled = entry.settled
        out: List[int] = [0] * len(lefts)
        miss: List[int] = []
        for pos in range(len(lefts)):
            u, v = lefts[pos], rights[pos]
            cached = edits_cache.get((u, v) if u < v else (v, u))
            if cached is not None:
                out[pos] = cached
            else:
                miss.append(pos)
        if not miss:
            return out
        codes, lengths, peq = entry.char_arrays()
        batch = batched_myers(
            codes,
            lengths,
            peq,
            np.fromiter((lefts[p] for p in miss), np.int64, count=len(miss)),
            np.fromiter((rights[p] for p in miss), np.int64, count=len(miss)),
        )
        remaining: List[int] = []
        for pos, edits in zip(miss, batch.tolist()):
            if edits < 0:  # too wide for one word; scalar below
                remaining.append(pos)
                continue
            out[pos] = edits
            u, v, k = lefts[pos], rights[pos], budgets[pos]
            settled[(u, v, k)] = edits <= k
            # batched distances are unconditionally exact
            edits_cache[(u, v) if u < v else (v, u)] = edits
        self.kernel_calls += len(miss) - len(remaining)
        pending: Dict[int, List[int]] = {}
        for pos in remaining:
            pending.setdefault(lefts[pos], []).append(pos)
        for u, positions in pending.items():
            self.kernel_calls += len(positions)
            results = self.prepared_kernel(values[u]).compare_many(
                [values[rights[p]] for p in positions],
                [budgets[p] for p in positions],
            )
            for p, edits in zip(positions, results):
                out[p] = edits
                v, k = rights[p], budgets[p]
                verdict = edits <= k
                settled[(u, v, k)] = verdict
                if verdict:
                    edits_cache[(u, v) if u < v else (v, u)] = edits
        return out

    def settle_many(
        self,
        entry: _StringIndex,
        lefts: Sequence[int],
        rights: Sequence[int],
        budgets: Sequence[int],
    ) -> List[bool]:
        """Batched settle verdicts ``lev(values[u], values[v]) <= k`` per pair.

        Probes the verdict and exact-edit caches first, then routes the
        misses through :meth:`bounded_edits_many`.
        """
        out: List[bool] = [False] * len(lefts)
        settled = entry.settled
        edits_cache = entry.exact_edits
        miss: List[int] = []
        for pos in range(len(lefts)):
            u, v, k = lefts[pos], rights[pos], budgets[pos]
            verdict = settled.get((u, v, k))
            if verdict is None:
                edits = edits_cache.get((u, v) if u < v else (v, u))
                if edits is not None:
                    verdict = edits <= k
                    settled[(u, v, k)] = verdict
            if verdict is None:
                miss.append(pos)
            else:
                out[pos] = verdict
        if miss:
            edits_batch = self.bounded_edits_many(
                entry,
                [lefts[p] for p in miss],
                [rights[p] for p in miss],
                [budgets[p] for p in miss],
            )
            for p, edits in zip(miss, edits_batch):
                out[p] = edits <= budgets[p]
        return out

    def qgram_probe(
        self,
        attribute: str,
        values: Sequence[str],
        query: str,
        ratio: float,
    ) -> List[int]:
        """Local ids of *values* possibly within ``ratio`` edits of *query*.

        One-vs-many candidate generation for the per-record serving
        path: the shared q-gram postings answer a single probe value
        (which need not be indexed) instead of a full self-join. Returns
        a **superset** of the values within
        ``floor(ratio * max_len + eps)`` edits — callers verify exactly,
        so a looser probe can never change results, only waste work.
        """
        entry, codes = self.string_index(attribute, values)
        self.index_probes += 1
        raw = entry.probe(query, ratio)
        if not raw:
            return []
        local_of = {code: vid for vid, code in enumerate(codes)}
        return [local_of[code] for code in raw]

    def band_probe(
        self,
        attribute: str,
        values: Sequence[float],
        query: float,
        band: float,
    ) -> List[int]:
        """Local ids of *values* with ``|value - query| <= band``.

        Numeric twin of :meth:`qgram_probe` over the shared sorted
        order; exact (the band window is the candidate condition).
        """
        entry, codes = self.numeric_index(attribute, values)
        self.index_probes += 1
        raw = entry.probe(query, band)
        if not raw:
            return []
        local_of = {code: vid for vid, code in enumerate(codes)}
        return [local_of[code] for code in raw]
