"""Sub-quadratic candidate generation for FT-violation detection.

The threshold self-join of Section 2.1 asks for every pattern pair whose
weighted projection distance (Eq. 2) is at most ``tau``. Per-attribute
distances are non-negative, which yields a **pigeonhole bound**: pick
any subset ``S`` of the FD's positive-weight attributes and any budget
split ``b_i > 0`` with ``sum(b_i) >= tau``; a pair whose distance on
*every* attribute of ``S`` satisfies ``w_i * d_i > b_i`` has total
weighted distance ``> tau`` and can never be an FT-violation. The
candidate set is therefore the **union** of one per-attribute blocker
per member of ``S``, each run at ratio ``r_i = b_i / w_i``:

* ``exact`` — partition patterns by the attribute value; sound whenever
  any difference already exceeds the ratio (string attributes with
  ``r * max_len < 1``, constant-spread numerics, ``tau == 0``).
* ``band`` — sort the distinct numeric values and emit pairs within
  ``r * spread`` of each other; pairs farther apart have normalized
  Euclidean distance ``> r``.
* ``qgram`` — for value lengths ``(la, lb)`` the edit budget is
  ``k = floor(r * max(la, lb) + eps)`` (the epsilon keeps
  float-boundary pairs in). A length band (``lev >= |la - lb|``) and a
  q-gram count filter (one edit destroys at most ``q`` distinct gram
  types) propose distinct-value pairs; the similarity join then settles
  each survivor exactly with the Levenshtein kernel.

:func:`_allocate_union` splits ``tau`` across the usable attributes
(exact partitions are nearly free budget-wise, numeric bands absorb
arbitrary budget, q-gram budgets rise one edit at a time);
:func:`vectorized_band_pairs` and :func:`vectorized_qgram_pairs` run the
band and q-gram blockers over distinct values with numpy.

Every blocker rejects with a real margin (``>= 1`` whole edit for
q-grams, a relative-plus-absolute band slack for numerics, one
character of normalized length for exact string partitions), so float
rounding in the reference Eq. (2) accumulation can never disagree with
an exclusion. The full soundness argument lives in ``docs/detection.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.violation import Pattern
from repro.index.qgram import packed_overlap

#: relative epsilon inside the edit-budget floor so float rounding in
#: ``ratio * length`` can never round an exactly-representable budget
#: down; rejection keeps a near-full-edit margin.
_BUDGET_EPS = 1e-9

#: relative slack applied to the numeric band for the same reason.
_BAND_SLACK = 1e-9

#: absolute band slack (times spread) so even near-zero budgets reject
#: with a margin far above float noise.
_BAND_ABS_SLACK = 1e-12

#: margin under which a string edit budget is treated as exactly zero
#: (every differing pair then exceeds the ratio, enabling exact
#: partitioning), and by which ratios stay clear of the ``d <= 1`` clamp.
_EXACT_MARGIN = 1e-6

@dataclass(frozen=True)
class AttributeBlocker:
    """One attribute's sound candidate filter inside a :class:`BlockPlan`.

    ``ratio`` is the attribute-level distance budget ``b / weight``; a
    pair this blocker rejects is guaranteed to have normalized distance
    ``> ratio`` on the attribute.
    """

    kind: str  # "exact" | "band" | "qgram"
    position: int
    attribute: str
    weight: float
    ratio: float

    def describe(self) -> str:
        return f"{self.kind}({self.attribute})"


@dataclass(frozen=True)
class BlockPlan:
    """The blocker union one similarity self-join ran.

    ``kind`` is ``block`` when :attr:`blockers` is a sound union whose
    per-attribute budgets sum to at least ``tau``, or ``scan`` when the
    join fell back to the length-filtered pair scan. ``estimate`` is the
    candidate-pair count the union produced.
    """

    kind: str  # "block" | "scan"
    blockers: Tuple[AttributeBlocker, ...] = ()
    estimate: int = 0

    def describe(self) -> str:
        """Compact label for stats and CLI output."""
        if self.kind == "scan":
            return "scan"
        return "+".join(blocker.describe() for blocker in self.blockers)


# ----------------------------------------------------------------------
# Grouping helpers
# ----------------------------------------------------------------------
def _group_by_value(
    patterns: Sequence[Pattern], position: int, numeric: bool
) -> Optional[Tuple[List[Any], List[List[int]]]]:
    """Distinct (coerced) values and their pattern-index groups.

    Values are coerced the way :meth:`DistanceModel.attribute_distance`
    coerces them (``str`` for string attributes, ``float`` for numeric),
    so grouping matches the distance semantics exactly. Returns ``None``
    when a value refuses the numeric coercion (the attribute is then
    unusable for blocking).

    Patterns minted by :func:`~repro.core.violation.group_patterns` over
    an encoded relation carry their projections as value ids
    (``Pattern.ids``); those partition on the ids directly — one int
    lookup per pattern, one coercion per *distinct* value — which the
    intern invariant guarantees is the same grouping. Hand-built
    patterns fall back to value-keyed grouping.
    """
    values: List[Any] = []
    groups: List[List[int]] = []
    if patterns and patterns[0].ids is not None:
        by_vid: Dict[int, int] = {}
        for index, pattern in enumerate(patterns):
            assert pattern.ids is not None
            vid = pattern.ids[position]
            slot = by_vid.get(vid)
            if slot is None:
                raw = pattern.values[position]
                if numeric:
                    try:
                        value = float(raw)
                    except (TypeError, ValueError):
                        return None
                else:
                    value = str(raw)
                by_vid[vid] = len(values)
                values.append(value)
                groups.append([index])
            else:
                groups[slot].append(index)
        return values, groups
    ids: Dict[Any, int] = {}
    for index, pattern in enumerate(patterns):
        raw = pattern.values[position]
        if numeric:
            try:
                value = float(raw)
            except (TypeError, ValueError):
                return None
        else:
            value = str(raw)
        vid = ids.get(value)
        if vid is None:
            ids[value] = len(values)
            values.append(value)
            groups.append([index])
        else:
            groups[vid].append(index)
    return values, groups


def _intra_pair_count(groups: Sequence[Sequence[int]]) -> int:
    return sum(len(g) * (len(g) - 1) // 2 for g in groups)


# ----------------------------------------------------------------------
# Band join (numeric attributes)
# ----------------------------------------------------------------------
def _band_width(ratio: float, spread: float) -> float:
    return ratio * spread * (1.0 + _BAND_SLACK) + spread * _BAND_ABS_SLACK


# ----------------------------------------------------------------------
# Vectorized candidate passes (distinct-id granularity, numpy-batched)
# ----------------------------------------------------------------------
#: element budget per transient matrix of the length-band pass and byte
#: budget per packed-overlap gather — both bound peak memory, neither
#: affects the emitted pair set.
_VEC_MATRIX_ELEMS = 1 << 21
_VEC_OVERLAP_BYTES = 1 << 20


def vectorized_band_pairs(values: Sequence[float], band: float) -> Tuple[Any, Any, int]:
    """Value-id pairs with ``|a - b| <= band``, as numpy arrays.

    An argsort plus one ``searchsorted`` finds each value's window, and
    the windows expand through segmented ``repeat``/``cumsum``
    arithmetic. Returns ``(u, v, passes)`` where *passes* counts the
    vectorized filter passes run.
    """
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    sv = arr[order]
    idx = np.arange(len(sv), dtype=np.int64)
    starts = np.searchsorted(sv, sv - band, side="left")
    counts = idx - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, 1
    pair_of = np.repeat(idx, counts)
    base = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - base[pair_of]
    mids = starts[pair_of] + within
    return order[mids], order[pair_of], 1


def vectorized_qgram_pairs(
    packed: Any,
    sizes: Any,
    lengths: Any,
    ratio: float,
    q: int,
) -> Tuple[Any, Any, Any, int]:
    """Distinct-id pair candidates of one q-gram blocker, numpy-batched.

    Runs the two sound prefilters over the canonical (bit-packed) gram
    matrix of :meth:`_StringIndex.gram_arrays`, upper triangle only:

    1. **length band** — ``|la - lb| <= k`` with the per-pair edit
       budget ``k = floor(ratio * max(la, lb) + eps)``;
    2. **q-gram count filter** (distinct-set variant) — ``lev <= k``
       implies the profiles share at least ``max(|Ga|, |Gb|) - k*q``
       grams, so pairs under that overlap are rejected by popcounting
       the packed rows.

    Returns ``(u, v, k, passes)``: surviving canonical code pairs, the
    edit budget per pair (for the exact settle the caller runs), and the
    number of vectorized filter passes. Survivors are a superset of the
    pairs within their budget; the caller settles them exactly, so the
    emitted value-pair set ends up identical to the scalar blocker's.
    """
    n_values = len(lengths)
    passes = 0
    out_u: List[Any] = []
    out_v: List[Any] = []
    out_k: List[Any] = []
    row_bytes = packed.shape[1] if packed.ndim == 2 else 1
    overlap_chunk = max(1, _VEC_OVERLAP_BYTES // max(row_bytes, 1))
    row_chunk = max(16, _VEC_MATRIX_ELEMS // max(n_values, 1))
    idx = np.arange(n_values, dtype=np.int64)
    for start in range(0, n_values, row_chunk):
        stop = min(start + row_chunk, n_values)
        li = lengths[start:stop, None]
        maxlen = np.maximum(li, lengths[None, :])
        budget = (ratio * maxlen + _BUDGET_EPS).astype(np.int64)
        mask = np.abs(li - lengths[None, :]) <= budget
        mask &= idx[None, :] > idx[start:stop, None]  # upper triangle
        passes += 1
        rows, cols = np.nonzero(mask)
        if rows.size == 0:
            continue
        budgets = budget[rows, cols]
        rows = rows + start
        need = np.maximum(sizes[rows], sizes[cols]) - budgets * q
        keep = np.ones(rows.size, dtype=bool)
        check = np.nonzero(need > 0)[0]
        for lo in range(0, check.size, overlap_chunk):
            sel = check[lo : lo + overlap_chunk]
            overlap = packed_overlap(packed, rows[sel], cols[sel])
            keep[sel] = overlap >= need[sel]
            passes += 1
        out_u.append(rows[keep])
        out_v.append(cols[keep])
        out_k.append(budgets[keep])
    if not out_u:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, passes
    return (
        np.concatenate(out_u),
        np.concatenate(out_v),
        np.concatenate(out_k),
        passes,
    )


# ----------------------------------------------------------------------
# Budget allocation
# ----------------------------------------------------------------------
class _AttrInfo:
    """Everything the budget split needs to know about one usable attribute."""

    def __init__(
        self,
        position: int,
        attribute: str,
        weight: float,
        numeric: bool,
        spread: float,
        values: List[Any],
        groups: List[List[int]],
    ) -> None:
        self.position = position
        self.attribute = attribute
        self.weight = weight
        self.numeric = numeric
        self.spread = spread
        self.values = values
        self.groups = groups
        self.intra = _intra_pair_count(groups)
        if numeric:
            self.max_len = 0
        else:
            self.max_len = max((len(v) for v in values), default=0)

    # -- budget levels -------------------------------------------------
    def base_budget(self) -> float:
        """The cheapest sound level: exact partition / zero-width band."""
        if self.numeric and self.spread > 0.0:
            return self.weight * _EXACT_MARGIN  # near-zero band
        if self.numeric or self.max_len == 0:
            # constant numerics / all-empty strings: distinct values are
            # at the clamp, any ratio below 1 excludes them
            return self.weight * (1.0 - 2.0 * _EXACT_MARGIN)
        return self.weight * (1.0 - 2.0 * _EXACT_MARGIN) / self.max_len

    def max_budget(self) -> float:
        """The largest budget this attribute can absorb soundly.

        Normalized distances are clamped at 1, so any ratio at or above
        1 makes the blocker vacuous; everything strictly below stays
        sound (a partially vacuous q-gram probe just takes whole length
        buckets for the affected queries).
        """
        if self.numeric and self.spread <= 0.0:
            return self.base_budget()
        if not self.numeric and self.max_len == 0:
            return self.base_budget()
        return self.weight * (1.0 - 2.0 * _EXACT_MARGIN)

    def next_level(self, budget: float) -> Optional[float]:
        """The next discrete budget above *budget* (strings only).

        Level ``k`` is the largest budget whose edit allowance at
        ``max_len`` is still ``k``: ``ratio * max_len`` just under
        ``k + 1``.
        """
        if self.numeric or self.max_len == 0:
            return None
        ceiling = self.max_budget()
        for k in range(1, self.max_len + 1):
            level = self.weight * (k + 1 - _EXACT_MARGIN) / self.max_len
            if level > ceiling:
                return None
            if level > budget:
                return level
        return None

    def kind_at(self, ratio: float) -> Optional[str]:
        """The blocker kind this attribute runs at *ratio*, or None.

        ``None`` means the blocker would be vacuous: normalized
        distances are clamped at 1, so a ratio near 1 excludes nothing.
        """
        if ratio >= 1.0 - _EXACT_MARGIN:
            return None
        if self.numeric:
            return "exact" if self.spread <= 0.0 else "band"
        if ratio * self.max_len < 1.0 - _EXACT_MARGIN:
            return "exact"
        return "qgram"


def _usable_attributes(
    fd: FD,
    model: DistanceModel,
    patterns: Sequence[Pattern],
) -> List[_AttrInfo]:
    """Positive-weight FD attributes a blocker can run on.

    Attributes with a distance override or a value that refuses the
    numeric coercion are left out.
    """
    n_lhs = len(fd.lhs)
    infos: List[_AttrInfo] = []
    for position, attribute in enumerate(fd.attributes):
        weight = model.weights.lhs if position < n_lhs else model.weights.rhs
        if weight <= 0.0:
            continue  # contributes nothing to Eq. (2)
        if model.has_override(attribute):
            continue  # custom distance: no geometry to block on
        numeric = model.is_numeric(attribute)
        grouped = _group_by_value(patterns, position, numeric)
        if grouped is None:
            continue
        values, groups = grouped
        spread = model.spread(attribute) if numeric else 0.0
        infos.append(
            _AttrInfo(
                position,
                attribute,
                weight,
                numeric,
                spread,
                values,
                groups,
            )
        )
    return infos


def _allocate_union(
    infos: List[_AttrInfo], tau: float
) -> Optional[List[Tuple[_AttrInfo, float]]]:
    """Greedy budget split with ``sum(budgets) >= tau``, or ``None``.

    Every attribute starts at its cheapest sound level (exact partition
    or zero-width band). Leftover budget flows into numeric bands first
    (they absorb continuously), then raises string q-gram budgets one
    edit at a time, smallest increment first — long attributes absorb
    budget with the least selectivity loss.
    """
    if not infos:
        return None
    budgets = [info.base_budget() for info in infos]
    deficit = tau - sum(budgets)
    if deficit > 0.0:
        # continuous absorption into numeric bands
        for i, info in enumerate(infos):
            if deficit <= 0.0:
                break
            room = info.max_budget() - budgets[i]
            if info.numeric and info.spread > 0.0 and room > 0.0:
                take = min(room, deficit)
                budgets[i] += take
                deficit -= take
        # discrete q-gram level raises: always lift the attribute whose
        # next level leaves it at the smallest ratio, keeping ratios low
        # and even across the union (selectivity decays with ratio)
        while deficit > 0.0:
            best: Optional[Tuple[float, int, float]] = None
            for i, info in enumerate(infos):
                level = info.next_level(budgets[i])
                if level is None:
                    continue
                next_ratio = level / info.weight
                if best is None or (next_ratio, i) < best[:2]:
                    best = (next_ratio, i, level)
            if best is None:
                return None  # cannot cover tau without going vacuous
            _, i, level = best
            deficit -= level - budgets[i]
            budgets[i] = level
    else:
        # surplus: drop the most expensive partitions we can spare
        order = sorted(
            range(len(infos)),
            key=lambda i: (-infos[i].intra, -budgets[i], infos[i].position),
        )
        keep = [True] * len(infos)
        total = sum(budgets)
        for i in order:
            if sum(keep) == 1:
                break
            if total - budgets[i] >= tau:
                keep[i] = False
                total -= budgets[i]
        infos = [info for i, info in enumerate(infos) if keep[i]]
        budgets = [b for i, b in enumerate(budgets) if keep[i]]
    return list(zip(infos, budgets))
