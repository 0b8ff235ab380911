"""Per-relation shared attribute indexes for FT-violation detection.

Several FDs of a workload typically share attributes (the FD-graph
overlap the paper exploits in Theorems 5-7). :class:`AttributeIndexRegistry`
hoists the detection structures to the attribute level: the **distinct
coerced values** of an attribute are the same for every FD containing
it (patterns cover all tuples), so one canonical index per attribute
serves every join, with a per-call code translation between the
canonical numbering and each FD's local value ids.

Shared per string attribute:

* the q-gram profiles and the ``uint64``-word gram matrix of the
  vectorized join's count filter,
* the character codes and Myers PEQ tables of the batched kernel,
* the gram frequencies, length buckets and inverted posting lists of
  the one-vs-many serving probe (built on the first probe).

Shared per numeric attribute: the sorted value order.

Settling is array-native and uncached: :meth:`bounded_edits_many` sends
every candidate pair of a call through one batched Myers kernel, whose
results are exact, so a settle verdict is just ``edits <= k``.

Everything the registry returns is a value-level fact, so detection
output is byte-identical with and without sharing.

The registry validates its entries per join (length equality plus
membership of every local value) and rebuilds on mismatch, so it stays
sound when the relation evolves between joins — e.g. the sequential
single-FD repair loop; serving probes validate once per values list.
Builds, reuses, and kernel calls are counted and surface in
``ViolationGraph.join_counters`` / ``ExecutionStats`` / CLI ``--stats``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

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
        "_gram_arrays",
        "_char_arrays",
    )

    def __init__(self, values: Sequence[str], q: int) -> None:
        self.q = q
        self.values: List[str] = list(values)
        self.code_of: Dict[str, int] = {
            value: code for code, value in enumerate(self.values)
        }
        self.lengths = np.array([len(value) for value in self.values], dtype=np.int64)
        self._profiles: Optional[List[frozenset]] = None
        self._frequency: Optional[Counter] = None
        self._by_length: Optional[Dict[int, List[int]]] = None
        self._postings: Optional[Dict[int, Dict[str, List[int]]]] = None
        self._gram_arrays: Optional[Tuple[Any, Any, Any]] = None
        self._char_arrays: Optional[Tuple[Any, Any, Any, Dict[str, int]]] = None

    def _ensure_profiles(self) -> List[frozenset]:
        if self._profiles is None:
            self._profiles = [
                frozenset(qgrams(value, self.q)) for value in self.values
            ]
        return self._profiles

    def _ensure_postings(self) -> None:
        """Frequency, length buckets and postings: serving probes only."""
        if self._postings is not None:
            return
        profiles = self._ensure_profiles()
        frequency: Counter = Counter()
        by_length: Dict[int, List[int]] = {}
        postings: Dict[int, Dict[str, List[int]]] = {}
        for code, length in enumerate(self.lengths.tolist()):
            frequency.update(profiles[code])
            by_length.setdefault(length, []).append(code)
            bucket = postings.setdefault(length, {})
            for gram in profiles[code]:
                bucket.setdefault(gram, []).append(code)
        self._frequency = frequency
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
        self._ensure_postings()
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

    def gram_arrays(self) -> Tuple[Any, Any, Any]:
        """Numpy encodings for the vectorized join, built lazily once.

        Returns ``(packed, sizes, lengths)``: the ``uint64``-word gram
        matrix and profile sizes from
        :func:`repro.index.qgram.gram_matrix` over the canonical
        profiles, plus the canonical value lengths.
        """
        if self._gram_arrays is None:
            packed, sizes = gram_matrix(self._ensure_profiles())
            self._gram_arrays = (packed, sizes, self.lengths)
        return self._gram_arrays

    def char_arrays(self) -> Tuple[Any, Any, Any, Dict[str, int]]:
        """Character codes + Myers PEQ tables for the batched kernel.

        Lazily built ``(codes, lengths, peq, vocabulary)`` from
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
        #: string pairs the join settles or verifies (every one is a
        #: kernel evaluation; nothing is cached across calls)
        self.kernel_calls = 0
        self._strings: Dict[str, _StringIndex] = {}
        self._numerics: Dict[str, _NumericIndex] = {}
        self._kernels: Dict[str, PreparedKernel] = {}
        #: attribute -> (probed values list, its entry, canonical -> local)
        self._probe_views: Dict[str, Tuple[Sequence, Any, List[int]]] = {}

    def counters(self) -> Dict[str, int]:
        """The accounting triple, for stats plumbing."""
        return {
            "index_builds": self.index_builds,
            "index_reuses": self.index_reuses,
            "kernel_calls": self.kernel_calls,
        }

    # ------------------------------------------------------------------
    def _index(
        self,
        store: Dict[str, Any],
        attribute: str,
        values: Sequence,
        build: Callable[[Sequence], Any],
    ) -> Tuple[Any, List[int]]:
        entry = store.get(attribute)
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
        entry = build(values)
        store[attribute] = entry
        self.index_builds += 1
        return entry, list(range(len(values)))

    def string_index(
        self, attribute: str, values: Sequence[str]
    ) -> Tuple[_StringIndex, List[int]]:
        """The canonical index for *attribute* plus local->canonical codes.

        Reuses the cached entry when *values* is a bijection of its
        canonical set (same length, every value known); rebuilds
        otherwise — the relation changed under the registry, e.g. between
        the passes of a sequential repair loop.
        """
        return self._index(
            self._strings, attribute, values, lambda vs: _StringIndex(vs, self.q)
        )

    def numeric_index(
        self, attribute: str, values: Sequence[float]
    ) -> Tuple[_NumericIndex, List[int]]:
        """Numeric twin of :meth:`string_index` (same validation rule)."""
        return self._index(self._numerics, attribute, values, _NumericIndex)

    # ------------------------------------------------------------------
    def prepared_kernel(self, text: str) -> PreparedKernel:
        """The interned Myers preparation for *text* (built once)."""
        prepared = self._kernels.get(text)
        if prepared is None:
            prepared = PreparedKernel(text)
            self._kernels[text] = prepared
        return prepared

    def bounded_edits_many(
        self, entry: _StringIndex, lefts: Any, rights: Any, budgets: Any
    ) -> Any:
        """Bounded edit distances between canonical value pairs, as arrays.

        *lefts*, *rights* and *budgets* are ``int64`` arrays; the result
        is too, and honours the kernel contract: exact iff it does not
        exceed its budget, so ``result <= budgets`` is the settle
        verdict. Every pair runs through one
        :func:`repro.index.qgram.batched_myers` call — the bit-parallel
        column update as elementwise ``uint64`` ops, with exact results.
        Pairs the one-word bitvector cannot hold (both sides over 63
        characters) are grouped by left value and run through one
        prepared :meth:`PreparedKernel.compare_many` per group.
        """
        codes, lengths, peq, _ = entry.char_arrays()
        out = batched_myers(codes, lengths, peq, lefts, rights)
        self.kernel_calls += len(out)
        wide = np.nonzero(out < 0)[0]
        if wide.size:
            groups: Dict[int, List[int]] = {}
            for pos, u in zip(wide.tolist(), lefts[wide].tolist()):
                groups.setdefault(u, []).append(pos)
            values = entry.values
            for u, positions in groups.items():
                out[positions] = self.prepared_kernel(values[u]).compare_many(
                    [values[v] for v in rights[positions].tolist()],
                    budgets[positions].tolist(),
                )
        return out

    def _probe_view(
        self,
        store: Dict[str, Any],
        attribute: str,
        values: Sequence,
        index: Callable[[str, Sequence], Tuple[Any, List[int]]],
    ) -> Tuple[Any, List[int]]:
        """The entry for a probed *values* list and its canonical -> local ids.

        Validated and inverted once per (entry, values list): a serving
        index probes the same distinct-values list many times, and
        rebuilds a fresh list when its element set grows.
        """
        view = self._probe_views.get(attribute)
        if (
            view is None
            or view[0] is not values
            or view[1] is not store.get(attribute)
            or len(view[2]) != len(values)
        ):
            entry, codes = index(attribute, values)
            local_of = [0] * len(codes)
            for vid, code in enumerate(codes):
                local_of[code] = vid
            view = (values, entry, local_of)
            self._probe_views[attribute] = view
        self.index_probes += 1
        return view[1], view[2]

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
        *values* must not be mutated in place between probes.
        """
        entry, local_of = self._probe_view(
            self._strings, attribute, values, self.string_index
        )
        return [local_of[code] for code in entry.probe(query, ratio)]

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
        entry, local_of = self._probe_view(
            self._numerics, attribute, values, self.numeric_index
        )
        return [local_of[code] for code in entry.probe(query, band)]
