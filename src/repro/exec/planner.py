"""Cost-model-driven submission order for the executor.

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
  (largest-estimated-first, stable on index).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.violation import group_patterns


def estimate_task(task) -> float:
    """The work estimate of one task.

    Component tasks sum ``patterns^2`` over their FDs; detection tasks
    are one FD. One linear scan per FD — the same cost the budget check
    already pays inside the task.
    """
    relation = task.relation
    fds = task.fds if hasattr(task, "fds") else (task.fd,)
    return sum(
        float(len(group_patterns(relation, fd))) ** 2 for fd in fds
    )


def plan_schedule(tasks: Sequence) -> List[int]:
    """The submission order of *tasks*: largest estimate first, stable."""
    estimates = [estimate_task(task) for task in tasks]
    return sorted(range(len(tasks)), key=lambda i: (-estimates[i], i))
