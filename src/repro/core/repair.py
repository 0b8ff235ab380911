"""Repair value objects: cell edits, repairs, and results.

A repair is a set of cell rewrites. We record them explicitly (rather
than only producing the repaired relation) because the evaluation metrics
(Section 6.1) are defined over repaired cells: precision is the fraction
of *repaired* cells restored to the truth, recall the fraction of
*erroneous* cells restored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.dataset.relation import Cell, Relation


@dataclass(frozen=True)
class CellEdit:
    """One cell rewrite: (tid, attribute): old -> new."""

    tid: int
    attribute: str
    old: Any
    new: Any

    @property
    def cell(self) -> Cell:
        return (self.tid, self.attribute)

    def __str__(self) -> str:
        return f"t{self.tid}[{self.attribute}]: {self.old!r} -> {self.new!r}"


@dataclass
class RepairResult:
    """Outcome of one repair run.

    Attributes
    ----------
    relation:
        The repaired relation (the input is never mutated).
    edits:
        The applied cell rewrites, deduplicated, in application order.
    cost:
        Eq. (4) database repair cost — the sum over tuples of the
        per-attribute distances between the original and repaired values.
    stats:
        Free-form counters from the algorithm (graph sizes, nodes
        expanded, prunings...). Keys are algorithm-specific. Results
        produced by the :class:`repro.exec.RepairExecutor` carry an
        :class:`repro.exec.ExecutionStats` here — a dict subclass, so
        every existing ``stats["..."]`` consumer keeps working, with
        typed accessors (``stats.degraded``, ``stats.pairs_examined``,
        ``stats.components``...) on top.
    timings:
        Phase name -> wall seconds (``model``, ``thresholds``,
        ``execute``). Empty for results built outside the engine.
    run_report:
        The :class:`~repro.obs.RunReport` of this run when the engine
        ran with ``trace=True`` (spans tree, unified counters, config,
        dataset fingerprint); ``None`` otherwise.
    """

    relation: Relation
    edits: List[CellEdit]
    cost: float
    stats: Dict[str, Any] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    run_report: Optional[Any] = None

    @property
    def edited_cells(self) -> List[Cell]:
        return [edit.cell for edit in self.edits]

    def edits_by_cell(self) -> Dict[Cell, CellEdit]:
        """Last-write-wins view of the edits keyed by cell."""
        return {edit.cell: edit for edit in self.edits}

    def summary(self) -> str:
        """One-line human summary (execution stats appended when known)."""
        text = f"{len(self.edits)} cell edit(s), repair cost {self.cost:.4f}"
        describe = getattr(self.stats, "describe", None)
        if describe is not None:
            detail = describe()
            if detail:
                text += f" [{detail}]"
        return text


def apply_edits(relation: Relation, edits: Iterable[CellEdit]) -> Relation:
    """Return a copy of *relation* with *edits* applied in order."""
    repaired = relation.copy()
    for edit in edits:
        repaired.set_value(edit.tid, edit.attribute, edit.new)
    return repaired


def collect_edits(
    original: Relation, repaired: Relation
) -> List[CellEdit]:
    """Diff two same-schema relations into cell edits."""
    if original.schema != repaired.schema or len(original) != len(repaired):
        raise ValueError("relations must share schema and cardinality to diff")
    edits: List[CellEdit] = []
    names = original.schema.names
    for tid in original.tids():
        row_old = original.row(tid)
        row_new = repaired.row(tid)
        for attr, old, new in zip(names, row_old, row_new):
            if old != new:
                edits.append(CellEdit(tid, attr, old, new))
    return edits


def edits_from_assignment(
    relation: Relation,
    attributes: Tuple[str, ...],
    tid_to_values: Mapping[int, Tuple],
) -> List[CellEdit]:
    """Cell edits that set *attributes* of each tid to the given values.

    Values are positional, matching *attributes*; unchanged cells are
    skipped.
    """
    edits: List[CellEdit] = []
    for tid, values in tid_to_values.items():
        if len(values) != len(attributes):
            raise ValueError(
                f"value tuple of length {len(values)} for {len(attributes)} attributes"
            )
        for attr, new in zip(attributes, values):
            old = relation.value(tid, attr)
            if old != new:
                edits.append(CellEdit(tid, attr, old, new))
    return edits


def squash_edits(edits: Iterable[CellEdit]) -> List[CellEdit]:
    """Collapse repeated rewrites of the same cell into the final one.

    Sequential per-FD repair can touch a cell twice; the net effect is a
    single old -> final rewrite (and none at all when the cell returns to
    its original value).
    """
    first_old: Dict[Cell, Any] = {}
    last_new: Dict[Cell, Any] = {}
    order: List[Cell] = []
    for edit in edits:
        if edit.cell not in first_old:
            first_old[edit.cell] = edit.old
            order.append(edit.cell)
        last_new[edit.cell] = edit.new
    return [
        CellEdit(cell[0], cell[1], first_old[cell], last_new[cell])
        for cell in order
        if first_old[cell] != last_new[cell]
    ]


def merge_results(
    relation: Relation, parts: Iterable[RepairResult]
) -> RepairResult:
    """Combine component-wise repairs into one result.

    Components operate on disjoint attribute sets (Section 4.1's FD
    graph), so edits cannot conflict; costs add.
    """
    all_edits: List[CellEdit] = []
    total = 0.0
    stats: Dict[str, Any] = {}
    seen_cells: Dict[Cell, CellEdit] = {}
    for part in parts:
        for edit in part.edits:
            if edit.cell in seen_cells and seen_cells[edit.cell].new != edit.new:
                raise ValueError(
                    f"conflicting edits for cell {edit.cell}: "
                    f"{seen_cells[edit.cell].new!r} vs {edit.new!r}"
                )
            seen_cells[edit.cell] = edit
        all_edits.extend(part.edits)
        total += part.cost
        for key, value in part.stats.items():
            if isinstance(value, (int, float)) and key in stats:
                stats[key] = stats[key] + value
            else:
                stats[key] = value
    repaired = apply_edits(relation, all_edits)
    return RepairResult(repaired, all_edits, total, stats)
