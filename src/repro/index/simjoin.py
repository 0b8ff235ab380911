"""Similarity self-join over FD patterns.

Detecting FT-violations is a threshold self-join: find every pattern pair
whose weighted projection distance (Eq. 2) is at most ``tau``. Two
strategies implement it:

* ``vectorized`` (the default, :data:`DEFAULT_JOIN`) — a pigeonhole
  union of per-attribute blockers (:mod:`repro.index.blocking`) run at
  **distinct-dictionary-id granularity** with numpy-batched filtering:
  per-attribute length-band + q-gram count-filter passes over the
  packed gram matrices propose distinct-id pairs, each survivor is
  settled exactly once with the prepared Myers kernel, verified value
  pairs fan out to pattern pairs through the dictionary frequency
  lists, and Eq. (2) accumulates per candidate as elementwise float64
  vector ops (bit-identical to the scalar accumulation). When the join
  has fewer than two patterns, the FD has a custom distance override or
  an active attribute that refuses the numeric coercion, or no sound
  budget split covers ``tau``, it falls back to the length-filtered
  pair scan.
* ``naive`` — exact distance for every pair, no filtering: the test
  oracle.

Both return exactly the same violations, in the same order, with
bit-identical distances; only the work differs.

**Counter semantics:**

* ``possible_pairs``       — ``P * (P - 1) / 2`` for ``P`` patterns; the
  work a full pair scan would face.
* ``candidates_generated`` — pairs the join put on the table: the blocker
  union's output, or ``possible_pairs`` for the scans.
* ``pairs_examined``       — candidate pairs actually inspected (always
  equals ``candidates_generated``; kept for backward compatibility).
* ``pairs_filtered``       — of those, rejected by a cheap sound filter
  (length lower bound, edit budget) before the Eq. (2) comparison.
  Always 0 for ``naive``, which verifies everything.
* ``pairs_verified``       — ``pairs_examined - pairs_filtered``.

Three distinct-id counters are 0 on the scans:

* ``distinct_pairs_examined`` — unique distinct-value pairs given an
  exact evaluation (blocker settles plus verification), summed per
  attribute. Value-level work: at most — and on duplicated data far
  below — the tuple-level pair count.
* ``tuple_fanout``            — tuple pairs the candidate set covers
  (``sum`` of multiplicity products): the work a tuple-granular join
  would have spent on the same candidates.
* ``vector_filter_passes``    — numpy filter passes run (length-band
  chunks, count-filter chunks, band windows).

``reduction_ratio`` summarizes the blocking win: the fraction of the
possible pairs the join never examined.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.violation import FTViolation, Pattern, PreparedProjection
from repro.index.blocking import (
    AttributeBlocker,
    BlockPlan,
    _allocate_union,
    _band_width,
    _usable_attributes,
    vectorized_band_pairs,
    vectorized_qgram_pairs,
)
from repro.index.registry import AttributeIndexRegistry
from repro.obs import span

STRATEGIES = ("naive", "vectorized")

#: the join every repair runs unless ``RepairConfig.join_strategy`` says
#: otherwise
DEFAULT_JOIN = "vectorized"


class SimilarityJoin:
    """Threshold self-join over patterns of one FD.

    See the module docstring for the two strategies and the exact counter
    semantics. After :meth:`join` the instance exposes
    ``possible_pairs`` / ``candidates_generated`` / ``pairs_examined`` /
    ``pairs_filtered`` / ``pairs_verified``, the achieved
    :attr:`reduction_ratio`, and (for ``vectorized``) the :attr:`plan`
    it ran — a blocker union, or ``scan`` after a fallback.
    """

    def __init__(
        self,
        fd: FD,
        model: DistanceModel,
        tau: float,
        strategy: str = DEFAULT_JOIN,
        q: int = 2,
        registry: Optional[AttributeIndexRegistry] = None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected {STRATEGIES}")
        if tau < 0:
            raise ValueError("tau must be non-negative")
        self.fd = fd
        self.model = model
        self.tau = tau
        self.strategy = strategy
        self.q = q
        #: shared attribute indexes; pass one registry to every join of a
        #: run so FDs with overlapping attributes reuse each other's work
        self.registry = registry if registry is not None else AttributeIndexRegistry(q)
        self.plan: Optional[BlockPlan] = None
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.possible_pairs = 0
        self.candidates_generated = 0
        self.pairs_examined = 0
        self.pairs_filtered = 0
        self.pairs_verified = 0
        # per-join deltas of the shared model/registry counters, so sums
        # over joins sharing one registry stay correct
        self.kernel_calls = 0
        self.index_builds = 0
        self.index_reuses = 0
        # distinct-id counters of the blocker union (0 on the scans)
        self.distinct_pairs_examined = 0
        self.tuple_fanout = 0
        self.vector_filter_passes = 0

    @property
    def reduction_ratio(self) -> float:
        """Fraction of the possible pairs never examined (0 for scans)."""
        if not self.possible_pairs:
            return 0.0
        return 1.0 - min(1.0, self.pairs_examined / self.possible_pairs)

    def counters(self) -> dict:
        """The join's instrumentation as a plain mapping (for stats)."""
        return {
            "possible_pairs": self.possible_pairs,
            "candidates_generated": self.candidates_generated,
            "pairs_examined": self.pairs_examined,
            "pairs_filtered": self.pairs_filtered,
            "pairs_verified": self.pairs_verified,
            "kernel_calls": self.kernel_calls,
            "index_builds": self.index_builds,
            "index_reuses": self.index_reuses,
            "distinct_pairs_examined": self.distinct_pairs_examined,
            "tuple_fanout": self.tuple_fanout,
            "vector_filter_passes": self.vector_filter_passes,
            "reduction_ratio": self.reduction_ratio,
            "blocker": self.plan.describe() if self.plan is not None else None,
        }

    # ------------------------------------------------------------------
    def join(self, patterns: Sequence[Pattern]) -> List[FTViolation]:
        """All FT-violating pairs among *patterns* at threshold ``tau``."""
        self._reset_counters()
        self.plan = None
        model, registry = self.model, self.registry
        with span(
            "detect", fd=self.fd.name, strategy=self.strategy, tau=self.tau
        ) as detect_span:
            kernel_calls0 = model.kernel_calls + registry.kernel_calls
            builds0 = registry.index_builds
            reuses0 = registry.index_reuses
            n = len(patterns)
            self.possible_pairs = n * (n - 1) // 2
            if self.strategy == "naive":
                out = self._join_scan(patterns)
            else:
                vectorized = self._join_vectorized(patterns)
                if vectorized is None:
                    # tiny inputs / custom overrides / uncoercible
                    # actives / no sound budget split
                    self.plan = BlockPlan(
                        kind="scan", estimate=self.possible_pairs
                    )
                    out = self._join_scan(patterns)
                else:
                    out = vectorized
            self.kernel_calls = (
                model.kernel_calls + registry.kernel_calls - kernel_calls0
            )
            self.index_builds = registry.index_builds - builds0
            self.index_reuses = registry.index_reuses - reuses0
            # Counters land as span attributes only; the executor publishes
            # the unified registry, so nothing is double counted.
            detect_span.set(violations=len(out), **self.counters())
        return out

    # ------------------------------------------------------------------
    def _join_vectorized(
        self, patterns: Sequence[Pattern]
    ) -> Optional[List[FTViolation]]:
        """The distinct-dictionary-id join, numpy-batched end to end.

        Pipeline (soundness/identity argument in ``docs/detection.md``):

        1. split ``tau`` across the FD's usable attributes with the
           pigeonhole allocation of :func:`_allocate_union`;
        2. realize each blocker at distinct-id granularity — numpy band
           windows for numerics, length-band + packed q-gram
           count-filter passes for strings, with survivors settled
           **exactly once per distinct pair** through the batched
           prepared Myers kernel;
        3. fan the surviving value pairs out to pattern pairs through
           the per-value pattern groups (segmented ``repeat``/``cumsum``
           expansion), union the blockers, and sort via one
           ``np.unique`` over packed ``i * n + j`` keys;
        4. verify candidates with per-attribute exact distances computed
           once per distinct value pair and accumulated elementwise in
           attribute order — IEEE-identical to the scalar Eq. (2) loop,
           so emitted distances are bit-identical.

        Returns ``None`` when the scalar scan should run instead: fewer
        than two patterns, custom distance overrides, uncoercible
        numerics, or no sound allocation.
        """
        model, fd, tau, registry = self.model, self.fd, self.tau, self.registry
        n = len(patterns)
        if n < 2 or any(model.has_override(attr) for attr in fd.attributes):
            return None
        n_lhs = len(fd.lhs)
        active = sum(
            1
            for pos in range(len(fd.attributes))
            if (model.weights.lhs if pos < n_lhs else model.weights.rhs) > 0.0
        )
        infos = _usable_attributes(fd, model, patterns)
        if len(infos) != active:
            return None  # an active attribute failed coercion
        allocation = _allocate_union(infos, tau)
        if allocation is None:
            return None  # the union cannot cover tau soundly
        # -- pick each blocker's kind up front
        realized: List[Tuple[Any, float, str]] = []
        for info, budget in allocation:
            ratio = budget / info.weight
            kind = info.kind_at(ratio)
            if kind is None:
                return None  # vacuous blocker; defensive (allocation agrees)
            realized.append((info, ratio, kind))

        # -- per-attribute group arrays (shared by fan-out and verify)
        arrays_of: dict = {}

        def group_arrays(info: Any) -> Tuple[Any, Any, Any]:
            cached = arrays_of.get(info.position)
            if cached is None:
                gsize = np.fromiter(
                    (len(g) for g in info.groups),
                    dtype=np.int64,
                    count=len(info.groups),
                )
                members = np.fromiter(
                    (index for group in info.groups for index in group),
                    dtype=np.int64,
                    count=n,
                )
                goff = np.cumsum(gsize) - gsize
                cached = (members, goff, gsize)
                arrays_of[info.position] = cached
            return cached

        # -- realize blockers and fan distinct-id pairs out to patterns
        distinct_examined = 0
        filter_passes = 0
        key_parts: List[Any] = []
        described: List[AttributeBlocker] = []
        for info, ratio, kind in realized:
            members, goff, gsize = group_arrays(info)
            described.append(
                AttributeBlocker(
                    kind=kind,
                    position=info.position,
                    attribute=info.attribute,
                    weight=info.weight,
                    ratio=ratio,
                )
            )
            intra = np.nonzero(gsize >= 2)[0]
            part = _fanout_keys(members, goff, gsize, intra, intra, n, True)
            if part is not None:
                key_parts.append(part)
            if kind == "exact":
                continue
            if kind == "band":
                band = _band_width(ratio, info.spread)
                u, v, passes = vectorized_band_pairs(info.values, band)
                filter_passes += passes
            else:
                entry, codes = registry.string_index(info.attribute, info.values)
                _, _, packed, sizes, lengths = entry.gram_arrays()
                cu, cv, budgets, passes = vectorized_qgram_pairs(
                    packed, sizes, lengths, ratio, self.q
                )
                filter_passes += passes
                distinct_examined += int(cu.size)
                verdicts = registry.settle_many(
                    entry, cu.tolist(), cv.tolist(), budgets.tolist()
                )
                keep = np.asarray(verdicts, dtype=bool)
                cu, cv = cu[keep], cv[keep]
                # canonical codes -> this FD's local value ids
                codes_arr = np.asarray(codes, dtype=np.int64)
                local = np.empty(len(codes), dtype=np.int64)
                local[codes_arr] = np.arange(len(codes), dtype=np.int64)
                u, v = local[cu], local[cv]
            part = _fanout_keys(members, goff, gsize, u, v, n, False)
            if part is not None:
                key_parts.append(part)

        if key_parts:
            keys = np.unique(np.concatenate(key_parts))
        else:
            keys = np.zeros(0, dtype=np.int64)
        ci = keys // n
        cj = keys - ci * n
        count = int(keys.size)
        self.candidates_generated = count
        self.pairs_examined = count

        # -- verify: exact per-attribute distances once per distinct
        #    value pair, accumulated elementwise in attribute order
        totals = np.zeros(count, dtype=np.float64)
        for info in infos:
            members, goff, gsize = group_arrays(info)
            code_of_pattern = np.empty(n, dtype=np.int64)
            code_of_pattern[members] = np.repeat(
                np.arange(len(gsize), dtype=np.int64), gsize
            )
            a = code_of_pattern[ci]
            b = code_of_pattern[cj]
            neq = np.nonzero(a != b)[0]
            if neq.size == 0:
                continue
            term = np.zeros(count, dtype=np.float64)
            if info.numeric:
                values = np.asarray(info.values, dtype=np.float64)
                if info.spread <= 0.0:
                    term[neq] = 1.0
                else:
                    gaps = np.abs(values[a[neq]] - values[b[neq]])
                    term[neq] = np.minimum(gaps / info.spread, 1.0)
            else:
                n_values = len(info.values)
                lo = np.minimum(a[neq], b[neq])
                hi = np.maximum(a[neq], b[neq])
                unique_keys, inverse = np.unique(
                    lo * n_values + hi, return_inverse=True
                )
                uu = unique_keys // n_values
                vv = unique_keys - uu * n_values
                entry, codes = registry.string_index(info.attribute, info.values)
                codes_arr = np.asarray(codes, dtype=np.int64)
                canon_u = codes_arr[uu]
                canon_v = codes_arr[vv]
                lengths = np.asarray(entry.lengths, dtype=np.int64)
                longest = np.maximum(lengths[canon_u], lengths[canon_v])
                # the loosest budget a scalar bounded check could use;
                # pairs rejected here provably exceed tau (margin
                # weight / longest, far above float noise)
                budgets = ((tau / info.weight) * longest).astype(np.int64) + 1
                edits = np.asarray(
                    registry.bounded_edits_many(
                        entry,
                        canon_u.tolist(),
                        canon_v.tolist(),
                        budgets.tolist(),
                    ),
                    dtype=np.int64,
                )
                distances = np.where(
                    edits <= budgets, edits / longest, np.inf
                )
                distinct_examined += int(unique_keys.size)
                term[neq] = distances[inverse]
            totals = totals + info.weight * term

        rejected = int(np.isinf(totals).sum())
        self.pairs_filtered = rejected
        self.pairs_verified = count - rejected
        self.distinct_pairs_examined = distinct_examined
        self.vector_filter_passes = filter_passes
        multiplicity = np.fromiter(
            (pattern.multiplicity for pattern in patterns),
            dtype=np.int64,
            count=n,
        )
        self.tuple_fanout = int((multiplicity[ci] * multiplicity[cj]).sum())
        self.plan = BlockPlan(
            kind="block", blockers=tuple(described), estimate=count
        )
        hits = np.nonzero(totals <= tau)[0]
        out: List[FTViolation] = []
        for c in hits.tolist():
            out.append(
                FTViolation(
                    patterns[int(ci[c])],
                    patterns[int(cj[c])],
                    float(totals[c]),
                )
            )
        return out

    def _join_scan(self, patterns: Sequence[Pattern]) -> List[FTViolation]:
        """The quadratic pair scan: ``naive``, or the length-filtered fallback."""
        out: List[FTViolation] = []
        naive = self.strategy == "naive"
        model, fd, tau = self.model, self.fd, self.tau
        lhs, rhs = fd.lhs, fd.rhs
        for i, left in enumerate(patterns):
            # left preparation once per row of the scan (one-vs-many):
            # the length-bound spec and per-attribute kernel comparers
            # are streamed over every right-hand pattern
            prepared = (
                None if naive else PreparedProjection(model, fd, left.values)
            )
            for right in patterns[i + 1 :]:
                self.pairs_examined += 1
                if naive:
                    # genuinely unfiltered: full Eq. (2), then compare
                    self.pairs_verified += 1
                    dist = model.projection_distance(
                        lhs, rhs, left.values, right.values
                    )
                    if dist <= tau:
                        out.append(FTViolation(left, right, dist))
                    continue
                if prepared.length_lower_bound(right.values) > tau:
                    self.pairs_filtered += 1
                    continue
                self.pairs_verified += 1
                dist = prepared.distance_within(
                    right.values, tau, use_filters=False
                )
                if dist is not None:
                    out.append(FTViolation(left, right, dist))
        self.candidates_generated = self.pairs_examined
        return out


def _fanout_keys(
    members: Any,
    goff: Any,
    gsize: Any,
    u: Any,
    v: Any,
    n: int,
    triangle: bool,
) -> Optional[Any]:
    """Fan value-id pairs out to packed pattern-pair keys ``i * n + j``.

    ``members``/``goff``/``gsize`` describe the per-value pattern groups
    (flattened members, group offsets, group sizes). Each ``(u, v)``
    value pair expands to the full cross product of its two groups via
    segmented ``repeat``/``cumsum`` arithmetic — the frequency-weighted
    fan-out, all in numpy. With *triangle* (the intra-group case,
    ``u == v``) only ``i < j`` pairs are kept; cross pairs are
    canonicalized to ``min * n + max``. Returns ``None`` for an empty
    expansion.
    """
    if len(u) == 0:
        return None
    su = gsize[u]
    sv = gsize[v]
    counts = su * sv
    total = int(counts.sum())
    if total == 0:
        return None
    pair_of = np.repeat(np.arange(len(u), dtype=np.int64), counts)
    base = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - base[pair_of]
    right_size = sv[pair_of]
    iu = within // right_size
    iv = within - iu * right_size
    pi = members[goff[u][pair_of] + iu]
    pj = members[goff[v][pair_of] + iv]
    if triangle:
        keep = pi < pj
        pi, pj = pi[keep], pj[keep]
        if pi.size == 0:
            return None
        return pi * n + pj
    return np.minimum(pi, pj) * n + np.maximum(pi, pj)
