"""Distance functions and the per-relation distance model.

The paper (Section 2.1) compares tuples on the attributes of a constraint
with a *normalized* per-attribute distance in [0, 1]:

* strings — normalized edit (Levenshtein) distance,
* numerics — normalized Euclidean distance (|a-b| divided by the largest
  observed spread of the attribute),

and combines attributes with Eq. (2)::

    dist(t1^phi, t2^phi) =  w_l * sum_{A in X} dist(t1[A], t2[A])
                          + w_r * sum_{A in Y} dist(t1[A], t2[A])

with ``w_l + w_r = 1`` (default 0.5 / 0.5). The *repair cost* of changing
one projection into another (Eq. 3) is the plain, unweighted sum of
per-attribute distances.

:class:`DistanceModel` binds these formulas to a concrete relation: it
resolves attribute kinds, holds the numeric normalizers, and memoizes
per-attribute value-pair distances (the same string pairs are compared
many times during graph construction and repair search).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.dataset.relation import NUMERIC, Relation, Schema

DistanceFn = Callable[[Any, Any], float]


# ----------------------------------------------------------------------
# String distances
# ----------------------------------------------------------------------
def levenshtein(a: str, b: str, upper_bound: Optional[int] = None) -> int:
    """Edit distance between *a* and *b* (insert / delete / substitute).

    When *upper_bound* is given, the computation may stop early: the
    result is exact whenever it is ``<= upper_bound``, and otherwise is
    some value ``> upper_bound`` (often exactly ``upper_bound + 1``).
    This is the workhorse of FT-violation detection, where only pairs
    below a threshold matter.

    Myers' bit-parallel scan (:class:`PreparedKernel`) with the shorter
    string as the pattern, so the bitvectors stay narrow. For
    one-vs-many workloads prefer :meth:`DistanceKernel.prepare`, which
    amortizes the PEQ table over all comparisons.

    >>> levenshtein("Boston", "Boton")
    1
    >>> levenshtein("kitten", "sitting")
    3
    >>> levenshtein("abcdef", "uvwxyz", upper_bound=2)
    3
    """
    if len(a) > len(b):
        a, b = b, a
    return PreparedKernel(a).compare(b, upper_bound)


class PreparedKernel:
    """Myers' bit-parallel Levenshtein with the left string fixed.

    The PEQ table (one bitmask of positions per distinct character of
    the pattern) is built once here and reused by every
    :meth:`compare` — the *one-vs-many* shape of blocker settlement,
    candidate verification, target-tree search and the greedy cost
    loops, which all compare one value against many.

    Python ints serve as arbitrary-width bitvectors, so patterns longer
    than a machine word need no explicit multi-word loop: the column
    update runs in O(⌈m/w⌉) big-int word operations per text character
    (Myers, JACM 1999), against the O(m) inner loop of the classic DP.
    """

    __slots__ = ("text", "length", "_peq", "_full", "_last")

    def __init__(self, text: str) -> None:
        self.text = text
        self.length = len(text)
        peq: Dict[str, int] = {}
        bit = 1
        for ch in text:
            peq[ch] = peq.get(ch, 0) | bit
            bit <<= 1
        self._peq = peq
        self._full = bit - 1  # (1 << m) - 1: masks Python's infinite ~
        self._last = bit >> 1  # the bit tracking row m

    def compare(self, other: str, upper_bound: Optional[int] = None) -> int:
        """Edit distance to *other*; same contract as :func:`levenshtein`.

        The score after text column ``j`` is ``D[m][j]``, which moves by
        at most one per column, so under a bound the scan aborts as soon
        as ``score - (columns left) > upper_bound``.
        """
        text = self.text
        if text == other:
            return 0
        m = self.length
        n = len(other)
        bound = upper_bound
        if bound is not None:
            if bound < 0:
                return 1  # distinct strings differ by at least one edit
            if (m - n if m > n else n - m) > bound:
                return bound + 1
        if m == 0:
            return n  # within the bound: the length gap was checked
        if n == 0:
            return m
        peq_get = self._peq.get
        full = self._full
        last = self._last
        pv = full
        mv = 0
        score = m
        if bound is None:
            for ch in other:
                eq = peq_get(ch, 0)
                xv = eq | mv
                xh = (((eq & pv) + pv) ^ pv) | eq
                ph = mv | (full & ~(xh | pv))
                mh = pv & xh
                if ph & last:
                    score += 1
                elif mh & last:
                    score -= 1
                ph = ((ph << 1) | 1) & full
                mh = (mh << 1) & full
                pv = mh | (full & ~(xv | ph))
                mv = ph & xv
            return score
        remaining = n
        for ch in other:
            remaining -= 1
            eq = peq_get(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (full & ~(xh | pv))
            mh = pv & xh
            if ph & last:
                score += 1
            elif mh & last:
                score -= 1
            ph = ((ph << 1) | 1) & full
            mh = (mh << 1) & full
            pv = mh | (full & ~(xv | ph))
            mv = ph & xv
            if score - remaining > bound:
                return bound + 1
        return score if score <= bound else bound + 1

    def compare_many(
        self,
        others: Sequence[str],
        upper_bounds: Optional[Sequence[Optional[int]]] = None,
    ) -> List[int]:
        """Batched :meth:`compare` against many right-hand strings.

        *upper_bounds* is either ``None`` (every comparison unbounded) or
        one bound per element of *others*; each result honours the same
        contract as :meth:`compare` — exact iff within its bound. The
        PEQ table is shared across the whole batch, which is the shape
        the vectorized distinct-id join settles candidates in.
        """
        compare = self.compare
        if upper_bounds is None:
            return [compare(other) for other in others]
        return [
            compare(other, bound)
            for other, bound in zip(others, upper_bounds)
        ]


class DistanceKernel:
    """The one-vs-many kernel API: ``prepare(left)`` then ``compare``.

    ``DistanceKernel.prepare(left)`` returns a :class:`PreparedKernel`
    whose ``compare(right, upper_bound=None)`` reuses the PEQ bitmask
    table across every right-hand candidate. Pairwise convenience:
    :func:`levenshtein`.
    """

    @staticmethod
    def prepare(left: str) -> PreparedKernel:
        return PreparedKernel(left)


def normalized_edit_distance(a: str, b: str) -> float:
    """Edit distance divided by the longer length; in [0, 1].

    Two empty strings are at distance 0 by convention.

    >>> normalized_edit_distance("Boston", "Boton")
    0.16666666666666666
    >>> normalized_edit_distance("", "")
    0.0
    """
    if a == b:
        return 0.0
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest


def qgrams(text: str, q: int = 2) -> Tuple[str, ...]:
    """The multiset of *q*-grams of *text*, padded with ``#`` / ``$``.

    Padding makes prefix/suffix characters participate in as many grams
    as interior characters, the standard similarity-join convention.

    >>> qgrams("ab", q=2)
    ('#a', 'ab', 'b$')
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if not text:
        return ()
    padded = "#" * (q - 1) + text + "$" * (q - 1)
    return tuple(padded[i : i + q] for i in range(len(padded) - q + 1))


def jaccard_distance(a: str, b: str, q: int = 2) -> float:
    """1 - Jaccard similarity of the q-gram sets; in [0, 1].

    An alternative string distance mentioned in Section 2.1; exposed so
    users can register it per attribute.
    """
    if a == b:
        return 0.0
    ga, gb = set(qgrams(a, q)), set(qgrams(b, q))
    if not ga and not gb:
        return 0.0
    union = len(ga | gb)
    if union == 0:
        return 0.0
    return 1.0 - len(ga & gb) / union


# ----------------------------------------------------------------------
# Numeric distance
# ----------------------------------------------------------------------
def normalized_euclidean(a: float, b: float, spread: float) -> float:
    """|a - b| / spread, clamped into [0, 1].

    *spread* is the largest observed distance of the attribute (the paper
    normalizes "by dividing the largest distance", Example 7). Two
    distinct values of a constant-spread column are maximally distant.
    """
    if a == b:
        return 0.0
    if spread <= 0.0:
        return 1.0
    return min(abs(a - b) / spread, 1.0)


# ----------------------------------------------------------------------
# Weighted combination
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Weights:
    """LHS / RHS weight coefficients of Eq. (2).

    The paper requires ``w_l + w_r == 1``; the default (0.5, 0.5) is the
    paper's default. Setting ``w_l=0, w_r=1`` (with ``tau=0``) degrades
    FT-violations to classic FD violations (Section 2.1, Remark).
    """

    lhs: float = 0.5
    rhs: float = 0.5

    def __post_init__(self) -> None:
        if self.lhs < 0 or self.rhs < 0:
            raise ValueError("weights must be non-negative")
        if abs(self.lhs + self.rhs - 1.0) > 1e-9:
            raise ValueError(f"w_l + w_r must be 1, got {self.lhs + self.rhs}")


class DistanceModel:
    """Per-relation distance oracle implementing Eqs. (1)-(3).

    Parameters
    ----------
    relation:
        The instance whose schema and numeric spreads define the
        normalizers. Spreads are captured at construction time, so a
        model built on the dirty input keeps stable distances while the
        relation is being repaired.
    weights:
        LHS/RHS weights of Eq. (2).
    overrides:
        Optional per-attribute distance functions, e.g.
        ``{"Name": jaccard_distance}``. Overrides receive the two raw
        values and must return a normalized distance in [0, 1].
    cache:
        Memoize per-attribute value-pair distances. ``True`` (default)
        uses a private dictionary, ``False`` disables memoization, and a
        mutable mapping plugs in an external store — e.g. the
        worker-persistent cache of :mod:`repro.exec.cache`, which keeps
        distances warm across repairs within one process.

    The model counts its memo traffic: :attr:`cache_hits` /
    :attr:`cache_misses` (see :meth:`cache_info`) feed the execution
    statistics of :class:`repro.exec.RepairExecutor`.
    """

    def __init__(
        self,
        relation: Relation,
        weights: Weights = Weights(),
        overrides: Optional[Dict[str, DistanceFn]] = None,
        cache: "Union[bool, MutableMapping]" = True,
    ) -> None:
        self.schema: Schema = relation.schema
        self.weights = weights
        self._overrides = dict(overrides or {})
        unknown = [a for a in self._overrides if a not in self.schema]
        if unknown:
            raise KeyError(f"override for unknown attribute(s): {unknown}")
        self._spreads: Dict[str, float] = {
            attr.name: relation.value_range(attr.name)
            for attr in self.schema
            if attr.kind == NUMERIC
        }
        if isinstance(cache, bool):
            self._cache: Optional[MutableMapping] = {} if cache else None
        else:
            self._cache = cache
        self.cache_hits = 0
        self.cache_misses = 0
        #: edit-distance kernel invocations (cache misses that reached a
        #: string kernel); feeds the ``kernel_calls`` execution counter
        self.kernel_calls = 0
        # interned Myers preparations: identical strings (across
        # attributes, FDs and probe directions) share one PEQ table
        self._prepared: Dict[str, PreparedKernel] = {}

    @classmethod
    def from_parts(
        cls,
        schema: "Schema",
        spreads: Dict[str, float],
        weights: Weights = Weights(),
        overrides: Optional[Dict[str, DistanceFn]] = None,
        cache: bool = True,
    ) -> "DistanceModel":
        """Rebuild a model from persisted parts (schema + numeric spreads).

        Used when deserializing a fitted repairer: the original relation
        is gone, but the schema and the captured normalizers fully
        determine the model's behaviour.
        """
        from repro.dataset.relation import Relation

        model = cls(Relation(schema), weights, overrides, cache)
        unknown = [a for a in spreads if a not in model._spreads]
        if unknown:
            raise KeyError(f"spreads for non-numeric attribute(s): {unknown}")
        model._spreads.update({k: float(v) for k, v in spreads.items()})
        return model

    @property
    def spreads(self) -> Dict[str, float]:
        """The captured numeric normalizers (for persistence)."""
        return dict(self._spreads)

    # ------------------------------------------------------------------
    def _prepared_kernel(self, text: str) -> PreparedKernel:
        """The interned Myers preparation for *text* (built once)."""
        prepared = self._prepared.get(text)
        if prepared is None:
            prepared = PreparedKernel(text)
            self._prepared[text] = prepared
        return prepared

    def _string_distance(self, a: str, b: str) -> float:
        """Normalized edit distance through the interned Myers kernel."""
        if a == b:
            return 0.0
        longest = max(len(a), len(b))
        if longest == 0:
            return 0.0
        self.kernel_calls += 1
        if len(a) > len(b):
            a, b = b, a
        return self._prepared_kernel(a).compare(b) / longest

    def attribute_distance(self, attribute: str, v1: Any, v2: Any) -> float:
        """Normalized distance between two values of *attribute* (Eq. 1)."""
        if v1 == v2:
            return 0.0
        if self._cache is not None:
            # Two-way probe instead of canonical ordering: hashing the
            # values twice is far cheaper than repr-based normalization.
            key = (attribute, v1, v2)
            hit = self._cache.get(key)
            if hit is None:
                hit = self._cache.get((attribute, v2, v1))
            if hit is not None:
                self.cache_hits += 1
                return hit
            self.cache_misses += 1
        override = self._overrides.get(attribute)
        if override is not None:
            value = float(override(v1, v2))
        elif attribute in self._spreads:
            value = normalized_euclidean(float(v1), float(v2), self._spreads[attribute])
        else:
            value = self._string_distance(str(v1), str(v2))
        if not 0.0 <= value <= 1.0 + 1e-9:
            raise ValueError(
                f"distance for {attribute!r} out of [0,1]: {value} "
                f"({v1!r} vs {v2!r})"
            )
        if self._cache is not None:
            self._cache[key] = value
        return value

    def prepare_distance(self, attribute: str, value: Any) -> Callable[[Any], float]:
        """One-vs-many form of :meth:`attribute_distance`.

        Fixes the left *value* and returns ``compare(other) -> float``.
        For plain string attributes the Myers PEQ table is prepared once
        (interned on the model, so identical strings across attributes
        and FDs share one preparation) and reused by every call — cache
        probes, counters, and returned values are identical to the
        pairwise method.
        """
        if attribute in self._overrides or attribute in self._spreads:
            return lambda other: self.attribute_distance(attribute, value, other)
        left = str(value)
        llen = len(left)

        def compare(other: Any) -> float:
            if value == other:
                return 0.0
            if self._cache is not None:
                key = (attribute, value, other)
                hit = self._cache.get(key)
                if hit is None:
                    hit = self._cache.get((attribute, other, value))
                if hit is not None:
                    self.cache_hits += 1
                    return hit
                self.cache_misses += 1
            b = str(other)
            if left == b:
                result = 0.0
            else:
                longest = llen if llen >= len(b) else len(b)
                if longest == 0:
                    result = 0.0
                else:
                    self.kernel_calls += 1
                    result = self._prepared_kernel(left).compare(b) / longest
            if self._cache is not None:
                self._cache[key] = result
            return result

        return compare

    def is_numeric(self, attribute: str) -> bool:
        """Whether *attribute* is compared with normalized Euclidean."""
        return attribute in self._spreads

    def has_override(self, attribute: str) -> bool:
        """Whether a custom distance function is registered for it."""
        return attribute in self._overrides

    def projection_distance(
        self,
        lhs: Sequence[str],
        rhs: Sequence[str],
        values1: Sequence[Any],
        values2: Sequence[Any],
    ) -> float:
        """Weighted constraint distance of Eq. (2).

        *values1* / *values2* are projections in ``lhs + rhs`` order.
        """
        n_lhs = len(lhs)
        total = 0.0
        for attr, a, b in zip(lhs, values1[:n_lhs], values2[:n_lhs]):
            total += self.weights.lhs * self.attribute_distance(attr, a, b)
        for attr, a, b in zip(rhs, values1[n_lhs:], values2[n_lhs:]):
            total += self.weights.rhs * self.attribute_distance(attr, a, b)
        return total

    def repair_cost(
        self,
        attributes: Sequence[str],
        values1: Sequence[Any],
        values2: Sequence[Any],
    ) -> float:
        """Unweighted sum of per-attribute distances (Eq. 3).

        This is the cost of rewriting one projection into the other, and
        the edge weight of the violation graph (Section 3).
        """
        return sum(
            self.attribute_distance(attr, a, b)
            for attr, a, b in zip(attributes, values1, values2)
        )

    def spread(self, attribute: str) -> float:
        """The Euclidean normalizer captured for a numeric attribute."""
        return self._spreads[attribute]

    def cache_size(self) -> int:
        """Number of memoized value pairs (0 when caching is off)."""
        return len(self._cache) if self._cache is not None else 0

    def cache_info(self) -> Dict[str, float]:
        """Memo traffic of this model: hits, misses, size, hit rate."""
        probes = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "size": self.cache_size(),
            "hit_rate": self.cache_hits / probes if probes else 0.0,
        }
