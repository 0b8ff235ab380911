"""Detect-only mode: find FT-violations without repairing.

The paper frames cleaning as detect-then-repair; in practice many
pipelines want the detection phase alone (route suspects to review,
block a load, feed a different fixer). :class:`DetectionReport` exposes
the FT-violations per constraint, the suspect tuples and cells, and a
text summary. Produced by :func:`detect` or
:meth:`repro.core.engine.Repairer.detect`.

Both run one FD at a time through :func:`fd_violations` — the
similarity join every repair uses — and assemble the report with
:func:`detection_report`. The quadratic
:func:`~repro.core.violation.ft_violation_pairs` scan is the
definition-level reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.violation import FTViolation, group_patterns
from repro.dataset.relation import Cell, Relation
from repro.detect.base import DetectorVerdict
from repro.index.simjoin import DEFAULT_JOIN, SimilarityJoin


@dataclass
class DetectionReport:
    """FT-violations of one relation against a set of FDs."""

    relation_size: int
    thresholds: Dict[str, float]
    #: fd name -> pattern-level violations
    violations: Dict[str, List[FTViolation]]
    #: fd name -> tuple ids involved in at least one violation
    suspects: Dict[str, Set[int]] = field(default_factory=dict)
    #: fd name -> tuple ids on the *minority* side of a violation — the
    #: probable error carriers (when a frequent and a rare pattern
    #: collide, the rare one is almost always the corruption)
    likely_errors: Dict[str, Set[int]] = field(default_factory=dict)
    #: execution statistics (per-FD seconds, cache and filter counters)
    #: when produced through the engine / executor; empty otherwise.
    #: Same surface as ``RepairResult.stats``.
    stats: Dict[str, object] = field(default_factory=dict)
    #: phase name -> wall seconds, mirroring ``RepairResult.timings``
    timings: Dict[str, float] = field(default_factory=dict)
    #: the :class:`~repro.obs.RunReport` of this detection when run with
    #: ``trace=True`` through the engine; ``None`` otherwise
    run_report: object = None
    #: detector name -> :class:`~repro.detect.DetectorVerdict`, filled
    #: by the engine when ``config.detectors`` lists detectors beyond
    #: the FD path (``docs/scenarios.md``); empty otherwise
    detector_verdicts: Dict[str, DetectorVerdict] = field(
        default_factory=dict
    )

    @property
    def total_violations(self) -> int:
        return sum(len(v) for v in self.violations.values())

    @property
    def suspect_tids(self) -> Set[int]:
        """Tuples involved in a violation of *any* constraint."""
        out: Set[int] = set()
        for tids in self.suspects.values():
            out |= tids
        return out

    @property
    def likely_error_tids(self) -> Set[int]:
        """Tuples on the minority side of some violation (see
        :attr:`likely_errors`)."""
        out: Set[int] = set()
        for tids in self.likely_errors.values():
            out |= tids
        return out

    def suspect_cells(self, fds: Sequence[FD]) -> Set[Cell]:
        """Cells a repair could touch: suspect tuples x their FD's attrs."""
        by_name = {fd.name: fd for fd in fds}
        cells: Set[Cell] = set()
        for name, tids in self.suspects.items():
            fd = by_name.get(name)
            if fd is None:
                continue
            for tid in tids:
                for attr in fd.attributes:
                    cells.add((tid, attr))
        return cells

    def is_clean(self) -> bool:
        """True when no constraint has any FT-violation and no
        configured detector flagged a cell."""
        if any(len(v.cells) for v in self.detector_verdicts.values()):
            return False
        return self.total_violations == 0

    def summary(self) -> str:
        """One block of text, one line per constraint."""
        lines = [
            f"{self.relation_size} tuples checked; "
            f"{self.total_violations} FT-violation(s), "
            f"{len(self.suspect_tids)} suspect tuple(s), "
            f"{len(self.likely_error_tids)} likely error carrier(s)"
        ]
        for name in self.violations:
            lines.append(
                f"  {name} (tau={self.thresholds[name]:.3f}): "
                f"{len(self.violations[name])} violating pattern pair(s), "
                f"{len(self.likely_errors.get(name, ()))} likely error tuple(s)"
            )
        for name in sorted(self.detector_verdicts):
            lines.append(f"  {self.detector_verdicts[name].summary()}")
        return "\n".join(lines)


def classify_violations(
    pairs: Sequence[FTViolation],
) -> Tuple[Set[int], Set[int]]:
    """(suspect tids, minority-side tids) of one FD's violation pairs.

    The minority side of a violating pair — the rarer pattern — is
    almost always the corruption when a frequent and a rare pattern
    collide; ties implicate both sides.
    """
    tids: Set[int] = set()
    minority: Set[int] = set()
    for violation in pairs:
        tids.update(violation.left.tids)
        tids.update(violation.right.tids)
        if violation.left.multiplicity == violation.right.multiplicity:
            minority.update(violation.left.tids)
            minority.update(violation.right.tids)
        elif violation.left.multiplicity < violation.right.multiplicity:
            minority.update(violation.left.tids)
        else:
            minority.update(violation.right.tids)
    return tids, minority


def fd_violations(
    relation: Relation,
    fd: FD,
    model: DistanceModel,
    tau: float,
    join_strategy: str = DEFAULT_JOIN,
) -> Tuple[List[FTViolation], Dict[str, object]]:
    """FT-violations of one FD and the counters of the join that found them.

    Groups *relation* into patterns and runs the
    :class:`~repro.index.simjoin.SimilarityJoin` every repair runs, so
    detection and repair see the same violations.
    """
    join = SimilarityJoin(fd, model, tau, strategy=join_strategy)
    violations = join.join(group_patterns(relation, fd))
    return violations, join.counters()


def detection_report(
    relation: Relation,
    fds: Sequence[FD],
    thresholds: Mapping[FD, float],
    violations: Mapping[str, List[FTViolation]],
) -> DetectionReport:
    """The report of per-FD *violations* (fd name -> pairs), classified."""
    suspects: Dict[str, Set[int]] = {}
    likely: Dict[str, Set[int]] = {}
    for name, pairs in violations.items():
        suspects[name], likely[name] = classify_violations(pairs)
    return DetectionReport(
        relation_size=len(relation),
        thresholds={fd.name: float(thresholds[fd]) for fd in fds},
        violations=dict(violations),
        suspects=suspects,
        likely_errors=likely,
    )


def detect(
    relation: Relation,
    fds: Sequence[FD],
    model: DistanceModel,
    thresholds: Mapping[FD, float],
) -> DetectionReport:
    """Detect FT-violations of every FD; no repair is attempted."""
    return detection_report(
        relation,
        fds,
        thresholds,
        {
            fd.name: fd_violations(relation, fd, model, thresholds[fd])[0]
            for fd in fds
        },
    )
