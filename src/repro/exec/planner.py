"""Cost-model-driven schedule planning for the executor.

Component tasks vary by orders of magnitude: the violation graph of one
FD can hold two patterns or two thousand. Submitted in discovery
order, a dominant component discovered late would serialize the tail
of the run. This module plans the dispatch:

* :func:`estimate_task` — per-task work from pattern counts, the same
  one-linear-scan signal ``component_size`` uses for budget decisions.
  The similarity join and the search are both superlinear in the
  pattern count, so ``sum(p_fd^2)`` ranks tasks correctly even though
  it undershoots exponential search blow-ups (which only *strengthens*
  the largest-first policy).
* :func:`plan_schedule` — a size-ordered submission queue
  (largest-estimated-first, stable on index), plus the *coordinated*
  subset: tasks whose estimate exceeds ``total / workers`` — one
  component's share of a perfectly balanced run — are executed in the
  parent under a subtree dispatcher so their winner search can be
  split across the same pool (``docs/parallelism.md``).

Coordination requires a splittable search (the run's algorithm is in
:data:`SPLITTABLE_ALGORITHMS`) and the task's largest per-FD graph to
reach ``split_threshold``: otherwise nothing would split, and the task
is better off in a worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.violation import group_patterns

#: algorithms with a splittable search: only Exact-S's winner search
#: measured a wall-clock win from splitting (``docs/parallelism.md``)
SPLITTABLE_ALGORITHMS = frozenset({"exact-s"})


@dataclass(frozen=True)
class SchedulePlan:
    """The planned dispatch of one executor run."""

    order: List[int]  #: submission order: largest estimate first
    coordinated: List[int]  #: run in-parent with a subtree dispatcher
    estimates: List[float]  #: per-task work estimates (task order)


def estimate_task(task) -> Tuple[float, int]:
    """(work estimate, largest per-FD pattern count) of one task.

    Component tasks sum ``patterns^2`` over their FDs; detection tasks
    are one FD. One linear scan per FD — the same cost the budget check
    already pays inside the task.
    """
    relation = task.relation
    fds = task.fds if hasattr(task, "fds") else (task.fd,)
    estimate = 0.0
    largest = 0
    for fd in fds:
        patterns = len(group_patterns(relation, fd))
        estimate += float(patterns * patterns)
        if patterns > largest:
            largest = patterns
    return estimate, largest


def plan_schedule(
    tasks: Sequence,
    workers: int,
    split_threshold: Optional[int] = None,
    splittable: bool = False,
) -> SchedulePlan:
    """Plan submission order and the coordinated (split) subset.

    A task is coordinated when splitting is available for this run
    (*splittable*), its estimate dominates (``> total / workers``), and
    its largest violation graph reaches *split_threshold* (otherwise no
    component of it would split and parent-side execution buys
    nothing).
    """
    pairs = [estimate_task(task) for task in tasks]
    estimates = [estimate for estimate, _ in pairs]
    order = sorted(range(len(tasks)), key=lambda i: (-estimates[i], i))
    coordinated: List[int] = []
    if splittable and split_threshold is not None and workers > 1 and tasks:
        total = sum(estimates)
        cutoff = total / workers
        coordinated = [
            i
            for i in order
            if estimates[i] > cutoff and pairs[i][1] >= split_threshold
        ]
    return SchedulePlan(
        order=order, coordinated=coordinated, estimates=estimates
    )
