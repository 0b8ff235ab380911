"""The built-in detectors: null, regex-format, numeric-outlier, FT-FD.

All four work over the dictionary-encoded columnar substrate
(``docs/dataset.md``): per-attribute work is done **once per distinct
value** against the :class:`~repro.dataset.relation.ValueDictionary`,
then fanned out to tuples by scanning the dense id column — the same
decode-once discipline the detection indexes use. Detectors never
mutate the relation.

* :class:`NullDetector` — missing-value tokens (``None``, ``""``,
  ``"n/a"``, ... and float NaN);
* :class:`RegexFormatDetector` — cells that break an explicit
  per-attribute regex, or (with no regexes given) cells whose inferred
  character-class *format signature* deviates from a dominant one;
* :class:`NumericOutlierDetector` — IQR-fence or MAD-score outliers of
  numeric columns;
* :class:`FdViolationDetector` — the paper's FT-FD detection
  (:func:`repro.core.detection.detect`), flagging the minority-side
  (likely-error) tuples of each violation on the FD's attributes.
"""

from __future__ import annotations

import re
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.dataset.relation import NUMERIC, Cell, Relation
from repro.detect.base import Detector, DetectorContext, DetectorVerdict
from repro.detect.registry import register_detector

#: tokens (lower-cased, stripped) the null detector treats as missing
DEFAULT_NULL_TOKENS: FrozenSet[str] = frozenset(
    {"", "na", "n/a", "null", "none", "nil", "-", "?"}
)


def _ids_by_predicate(
    relation: Relation, attribute: str, predicate
) -> Set[int]:
    """Dictionary ids of *attribute* whose decoded value satisfies *predicate*.

    One decode per distinct value; the caller fans out via the id
    column. Dictionaries are append-only and shared across copies, so
    they may hold values no longer present in the column — harmless
    here, the column scan is what assigns cells.
    """
    return {
        vid
        for vid, value in enumerate(relation.dictionary(attribute).values())
        if predicate(value)
    }


def _cells_with_ids(
    relation: Relation, attribute: str, ids: Set[int]
) -> List[Cell]:
    """The (tid, attribute) cells whose stored id is in *ids*."""
    if not ids:
        return []
    return [
        (tid, attribute)
        for tid, vid in enumerate(relation.column(attribute))
        if vid in ids
    ]


@register_detector("null")
class NullDetector(Detector):
    """Flag cells holding a missing-value token.

    A value is null when it is ``None``, a float NaN, or a string whose
    stripped lower-casing is one of *tokens*
    (:data:`DEFAULT_NULL_TOKENS` by default). Works on every attribute,
    string or numeric.
    """

    name = "null"

    def __init__(self, tokens: Optional[Sequence[str]] = None) -> None:
        self.tokens: FrozenSet[str] = (
            frozenset(t.strip().lower() for t in tokens)
            if tokens is not None
            else DEFAULT_NULL_TOKENS
        )

    def _is_null(self, value: object) -> bool:
        if value is None:
            return True
        if isinstance(value, float) and value != value:  # NaN
            return True
        if isinstance(value, str):
            return value.strip().lower() in self.tokens
        return False

    def flag(
        self, relation: Relation, context: Optional[DetectorContext] = None
    ) -> DetectorVerdict:
        cells: List[Cell] = []
        for attribute in relation.schema.names:
            null_ids = _ids_by_predicate(relation, attribute, self._is_null)
            cells.extend(_cells_with_ids(relation, attribute, null_ids))
        return self.verdict(relation, cells)


def format_signature(value: object) -> str:
    """The character-class shape of a value.

    Lower-case letters map to ``a``, upper-case to ``A``, digits to
    ``9``; every other character stands for itself. Two values share a
    signature exactly when they share length and per-position class —
    the granularity at which format drift (case flips, inserted
    separators, padding) is visible while legitimate same-format values
    are not.
    """
    out = []
    for ch in str(value):
        if ch.islower():
            out.append("a")
        elif ch.isupper():
            out.append("A")
        elif ch.isdigit():
            out.append("9")
        else:
            out.append(ch)
    return "".join(out)


@register_detector("regex")
class RegexFormatDetector(Detector):
    """Flag cells that break an attribute's format.

    Two modes:

    * **explicit** — ``patterns`` maps attribute -> regex; a cell is
      flagged when ``re.fullmatch`` fails on its string form. Unknown
      attributes raise at flag time (a misspelled column silently
      matching nothing would hide errors).
    * **inferred** (no patterns) — per string attribute, each distinct
      value's :func:`format_signature` is weighted by its tuple count;
      when one signature carries at least ``min_support`` of the tuples
      (and the column has at least ``min_rows`` rows), every cell with
      a different signature is flagged. Columns with no dominant format
      flag nothing — absence of convention is not an error.
    """

    name = "regex"

    def __init__(
        self,
        patterns: Optional[Mapping[str, str]] = None,
        min_support: float = 0.9,
        min_rows: int = 8,
    ) -> None:
        if not 0.5 < min_support <= 1.0:
            raise ValueError("min_support must be in (0.5, 1.0]")
        self.patterns: Optional[Dict[str, "re.Pattern[str]"]] = (
            {attr: re.compile(expr) for attr, expr in patterns.items()}
            if patterns is not None
            else None
        )
        self.min_support = min_support
        self.min_rows = min_rows

    # ------------------------------------------------------------------
    def _flag_explicit(self, relation: Relation) -> List[Cell]:
        assert self.patterns is not None
        cells: List[Cell] = []
        for attribute, pattern in self.patterns.items():
            if attribute not in relation.schema:
                raise KeyError(
                    f"regex detector: unknown attribute {attribute!r}"
                )
            bad_ids = _ids_by_predicate(
                relation,
                attribute,
                lambda value: pattern.fullmatch(str(value)) is None,
            )
            cells.extend(_cells_with_ids(relation, attribute, bad_ids))
        return cells

    def _flag_inferred(self, relation: Relation) -> List[Cell]:
        if len(relation) < self.min_rows:
            return []
        cells: List[Cell] = []
        for attribute in relation.schema.names:
            if relation.schema.kind_of(attribute) == NUMERIC:
                continue  # float formatting noise is not a format signal
            signatures = [
                format_signature(value)
                for value in relation.dictionary(attribute).values()
            ]
            counts: Dict[str, int] = {}
            column = list(relation.column(attribute))
            for vid in column:
                sig = signatures[vid]
                counts[sig] = counts.get(sig, 0) + 1
            if not counts:
                continue
            dominant, support = max(counts.items(), key=lambda kv: kv[1])
            if support / len(column) < self.min_support:
                continue
            deviant_ids = {
                vid
                for vid in set(column)
                if signatures[vid] != dominant
            }
            cells.extend(_cells_with_ids(relation, attribute, deviant_ids))
        return cells

    def flag(
        self, relation: Relation, context: Optional[DetectorContext] = None
    ) -> DetectorVerdict:
        if self.patterns is not None:
            return self.verdict(relation, self._flag_explicit(relation))
        return self.verdict(relation, self._flag_inferred(relation))


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of an already-sorted sequence."""
    position = q * (len(ordered) - 1)
    low = int(position)
    frac = position - low
    if frac == 0.0 or low + 1 >= len(ordered):
        return ordered[low]
    return ordered[low] * (1.0 - frac) + ordered[low + 1] * frac


@register_detector("outlier")
class NumericOutlierDetector(Detector):
    """Flag numeric cells far outside their column's distribution.

    ``method="iqr"`` fences at ``[Q1 - k*IQR, Q3 + k*IQR]`` (default
    ``k=3.0``, the conservative "far out" fence); ``method="mad"``
    flags robust z-scores ``|x - median| / (1.4826 * MAD) > k``
    (default ``k=3.5``). Statistics are tuple-weighted (each row
    counts, not each distinct value), computed over one decode of the
    dictionary. Degenerate columns — fewer than ``min_rows`` values,
    or zero spread (IQR/MAD of 0) — flag nothing: a scale of zero
    cannot separate signal from noise, and guessing would trade silent
    false positives for the zero-division it papers over.
    """

    name = "outlier"

    def __init__(
        self,
        method: str = "iqr",
        k: Optional[float] = None,
        min_rows: int = 16,
    ) -> None:
        if method not in ("iqr", "mad"):
            raise ValueError("method must be 'iqr' or 'mad'")
        self.method = method
        self.k = k if k is not None else (3.0 if method == "iqr" else 3.5)
        self.min_rows = min_rows

    def _outlier_ids(
        self, decoded: Sequence[float], column: Sequence[int]
    ) -> Set[int]:
        values = sorted(decoded[vid] for vid in column)
        if self.method == "iqr":
            q1 = _quantile(values, 0.25)
            q3 = _quantile(values, 0.75)
            spread = q3 - q1
            if spread <= 0.0:
                return set()
            lo, hi = q1 - self.k * spread, q3 + self.k * spread
            return {
                vid for vid in set(column) if not lo <= decoded[vid] <= hi
            }
        median = _quantile(values, 0.5)
        mad = _quantile(sorted(abs(v - median) for v in values), 0.5)
        scale = 1.4826 * mad
        if scale <= 0.0:
            return set()
        return {
            vid
            for vid in set(column)
            if abs(decoded[vid] - median) / scale > self.k
        }

    def flag(
        self, relation: Relation, context: Optional[DetectorContext] = None
    ) -> DetectorVerdict:
        cells: List[Cell] = []
        for attribute in relation.schema.names:
            if relation.schema.kind_of(attribute) != NUMERIC:
                continue
            column = list(relation.column(attribute))
            if len(column) < self.min_rows:
                continue
            decoded = [
                float(value)
                for value in relation.dictionary(attribute).values()
            ]
            outlier_ids = self._outlier_ids(decoded, column)
            cells.extend(_cells_with_ids(relation, attribute, outlier_ids))
        return self.verdict(relation, cells)


@register_detector("fd")
class FdViolationDetector(Detector):
    """The paper's FT-FD detection, wrapped as a registry citizen.

    Runs :func:`repro.core.detection.detect` — the similarity join
    every repair runs — over the context's FDs and flags the
    **likely-error carriers** — the minority-side tuples of
    each violating pattern pair — on the attributes of the violated FD.
    (Flagging both sides would halve precision for no recall gain: when
    a frequent and a rare pattern collide, the rare one is almost
    always the corruption; see ``classify_violations``.)

    The distance model and per-FD taus fall back to the engine's
    defaults when the context does not supply them.
    """

    name = "fd"

    def flag(
        self, relation: Relation, context: Optional[DetectorContext] = None
    ) -> DetectorVerdict:
        from repro.core.detection import detect
        from repro.core.distances import DistanceModel
        from repro.core.thresholds import suggest_thresholds

        if context is None or not context.fds:
            raise ValueError(
                "FdViolationDetector requires DetectorContext.fds "
                "(the FDs to check)"
            )
        fds = list(context.fds)
        model = context.model or DistanceModel(relation)
        thresholds: Mapping = context.thresholds or suggest_thresholds(
            relation, fds, model, rng=context.seed
        )
        report = detect(relation, fds, model, dict(thresholds))
        cells: Set[Cell] = set()
        for fd in fds:
            for tid in report.likely_errors.get(fd.name, ()):
                for attribute in fd.attributes:
                    cells.add((tid, attribute))
        return self.verdict(relation, cells)


__all__: Tuple[str, ...] = (
    "DEFAULT_NULL_TOKENS",
    "FdViolationDetector",
    "NullDetector",
    "NumericOutlierDetector",
    "RegexFormatDetector",
    "format_signature",
)
