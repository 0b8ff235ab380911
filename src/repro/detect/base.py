"""Typed detector verdicts and the detector contract.

A *detector* inspects one relation and emits a
:class:`DetectorVerdict` — an immutable, typed set of suspect cells
with provenance. Detectors are deliberately decoupled from the repair
model: the paper's FT-FD detection is one detector among several
(:class:`~repro.detect.builtin.FdViolationDetector`), alongside
signal-style detectors in the HoloClean tradition (null tokens, format
conformance, numeric outliers).

Verdicts are reports, not repair inputs: the engine runs detectors as
a stage before repair and records their cells
(``DetectionReport.detector_verdicts``, the
``detector_cells_flagged`` counters), and nothing in the repair reads
them. Detectors never touch repair — the FD repair is byte-identical
whether detectors are configured or not (``docs/scenarios.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Set,
)

from repro.dataset.relation import Cell, Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.constraints import FD
    from repro.core.distances import DistanceModel


@dataclass(frozen=True)
class DetectorVerdict:
    """What one detector found on one relation.

    ``cells`` is the set of (tid, attribute) cells the detector flags
    as suspect. Verdicts are frozen values: safe to cache, ship, and
    merge without aliasing surprises.
    """

    detector: str
    relation_size: int
    cells: FrozenSet[Cell]
    #: wall seconds the detector spent (0.0 when not measured)
    seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.cells)

    def __bool__(self) -> bool:
        # An empty verdict is still a verdict: "nothing suspect".
        return True

    @property
    def tids(self) -> Set[int]:
        """Tuples owning at least one flagged cell."""
        return {tid for tid, _ in self.cells}

    def by_attribute(self) -> Dict[str, Set[int]]:
        """attribute -> flagged tuple ids (for per-column review)."""
        out: Dict[str, Set[int]] = {}
        for tid, attr in self.cells:
            out.setdefault(attr, set()).add(tid)
        return out

    def summary(self) -> str:
        return (
            f"{self.detector}: {len(self.cells)} cell(s) flagged over "
            f"{len(self.tids)} tuple(s) of {self.relation_size}"
        )


@dataclass
class DetectorContext:
    """Everything a detector may (but need not) consult.

    Only :class:`~repro.detect.builtin.FdViolationDetector` requires
    FDs; the signal detectors ignore the context entirely. ``model``
    and ``thresholds`` are optional even for the FD detector — it
    derives them from the data when absent, exactly like the engine.
    """

    fds: Sequence["FD"] = ()
    model: Optional["DistanceModel"] = None
    thresholds: Optional[Mapping["FD", float]] = None
    seed: object = None


class Detector:
    """Base class of every registered detector.

    Subclasses set :attr:`name` (the registry key, also stamped on
    verdicts) and implement :meth:`flag`. Detectors must not mutate the
    relation.
    """

    name: str = "detector"

    def flag(
        self, relation: Relation, context: Optional[DetectorContext] = None
    ) -> DetectorVerdict:
        """Inspect *relation* and return the verdict."""
        raise NotImplementedError

    def verdict(
        self, relation: Relation, cells: Iterable[Cell], seconds: float = 0.0
    ) -> DetectorVerdict:
        """Package *cells* as this detector's verdict."""
        return DetectorVerdict(
            detector=self.name,
            relation_size=len(relation),
            cells=frozenset(cells),
            seconds=seconds,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


__all__ = [
    "Detector",
    "DetectorContext",
    "DetectorVerdict",
]
