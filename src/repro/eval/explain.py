"""Repair reports: summarize what a repair did and what it achieved.

Automatic repair is only trustworthy when it is reviewable. This module
turns a :class:`~repro.core.repair.RepairResult` into a structured
report — per-attribute edit counts, the most common value rewrites,
touched tuples, and (when a distance model and thresholds are supplied)
the FT-violation counts before and after per constraint — plus a plain
text rendering for logs and consoles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.constraints import FD
from repro.core.detection import fd_violations
from repro.core.distances import DistanceModel
from repro.core.repair import RepairResult
from repro.dataset.relation import Relation
from repro.eval.reporting import format_table


@dataclass
class RepairReport:
    """Structured summary of one repair run."""

    total_edits: int
    total_cost: float
    tuples_touched: int
    edits_by_attribute: Dict[str, int]
    top_rewrites: List[Tuple[str, object, object, int]]
    #: fd name -> (violations before, violations after); empty when no
    #: model/thresholds were provided
    violations: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def render(self) -> str:
        """Fixed-width text rendering."""
        lines = [
            f"{self.total_edits} cell edit(s) across "
            f"{self.tuples_touched} tuple(s), repair cost "
            f"{self.total_cost:.4f}",
            "",
            "Edits by attribute:",
            format_table(
                ["attribute", "edits"],
                [
                    [attr, str(count)]
                    for attr, count in sorted(
                        self.edits_by_attribute.items(),
                        key=lambda kv: (-kv[1], kv[0]),
                    )
                ],
            ),
        ]
        if self.top_rewrites:
            lines += [
                "",
                "Most common rewrites:",
                format_table(
                    ["attribute", "from", "to", "count"],
                    [
                        [attr, repr(old), repr(new), str(count)]
                        for attr, old, new, count in self.top_rewrites
                    ],
                ),
            ]
        if self.violations:
            lines += [
                "",
                "FT-violations (pattern pairs) before -> after:",
                format_table(
                    ["constraint", "before", "after"],
                    [
                        [name, str(before), str(after)]
                        for name, (before, after) in self.violations.items()
                    ],
                ),
            ]
        return "\n".join(lines)


def repair_report(
    original: Relation,
    result: RepairResult,
    fds: Sequence[FD] = (),
    model: Optional[DistanceModel] = None,
    thresholds: Optional[Dict[FD, float]] = None,
    top: int = 10,
) -> RepairReport:
    """Build a :class:`RepairReport` for *result* applied to *original*.

    Pass *fds*, *model* and *thresholds* to include before/after
    violation counts (the model should be built on the *original*
    relation so distances are comparable).
    """
    by_attribute = Counter(edit.attribute for edit in result.edits)
    rewrites = Counter(
        (edit.attribute, edit.old, edit.new) for edit in result.edits
    )
    top_rewrites = [
        (attr, old, new, count)
        for (attr, old, new), count in rewrites.most_common(top)
    ]
    tuples_touched = len({edit.tid for edit in result.edits})

    violations: Dict[str, Tuple[int, int]] = {}
    if fds and model is not None and thresholds is not None:
        for fd in fds:
            tau = thresholds[fd]
            before, _ = fd_violations(original, fd, model, tau)
            after, _ = fd_violations(result.relation, fd, model, tau)
            violations[fd.name] = (len(before), len(after))

    return RepairReport(
        total_edits=len(result.edits),
        total_cost=result.cost,
        tuples_touched=tuples_touched,
        edits_by_attribute=dict(by_attribute),
        top_rewrites=top_rewrites,
        violations=violations,
    )
