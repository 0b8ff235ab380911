"""The subtree-dispatch hook: how core search reaches the executor.

The Exact-S winner search
(:func:`~repro.core.single.mis.best_maximal_independent_set`) can
decompose a giant component's exploration into independently
explorable subtree tasks — but the *core* layer must not know about
process pools. This module inverts the dependency: the executor
installs a :class:`SubtreeDispatcher` through a :func:`use_dispatcher`
context, and the winner search consults :func:`current_dispatcher` when
a component crosses the configured split threshold. With no dispatcher
installed (serial runs, worker processes, every existing caller)
nothing changes.

Chunks score their own candidates and return chunk winners; the parent
reduces them in segment order with the serial comparator. Pruning
under the shared incumbent bound may only discard provably-beaten
sets, so the winner is unchanged (``docs/parallelism.md``).

The context variable is process-local by construction, but a ``fork``
started mid-dispatch would inherit it — dispatcher implementations must
therefore refuse to activate outside their creating process (see
``PoolSubtreeDispatcher.wants``).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.core.single.frontier import (
    ExpansionStats,
    FrontierState,
    SearchKernel,
)


@dataclass
class SplitRequest:
    """Everything a dispatcher needs to explore a cut winner search.

    The *state* is cut at a level boundary with ``pending_upper``
    already folded; *stats* is the caller's live counter object — the
    dispatcher merges subtree deltas into it so budget accounting and
    observability see one consistent run.
    """

    kernel: SearchKernel
    state: FrontierState
    stats: ExpansionStats
    max_nodes: Optional[int]
    fd_name: str
    order: List[int]  #: original vertex ids, for tie-breaks and labels


class SubtreeDispatcher:
    """Strategy interface for exploring a split frontier."""

    def wants(self, n_vertices: int) -> bool:
        """Should a component of this size be split at all?"""
        raise NotImplementedError

    def fanout(self) -> int:
        """Desired number of subtree chunks (the frontier-width target)."""
        raise NotImplementedError

    def explore(
        self, request: SplitRequest
    ) -> Optional[Tuple[int, float, List[int]]]:
        """Explore the request's frontier to completion.

        Returns the winning ``(mask, cost, sorted_members)`` triple, or
        ``None`` when no candidate survives.
        """
        raise NotImplementedError


_DISPATCHER: ContextVar[Optional[SubtreeDispatcher]] = ContextVar(
    "repro_subtree_dispatcher", default=None
)


def current_dispatcher() -> Optional[SubtreeDispatcher]:
    """The dispatcher installed for the current context, if any."""
    return _DISPATCHER.get()


@contextmanager
def use_dispatcher(
    dispatcher: SubtreeDispatcher,
) -> Iterator[SubtreeDispatcher]:
    """Install *dispatcher* for the duration of the block."""
    token = _DISPATCHER.set(dispatcher)
    try:
        yield dispatcher
    finally:
        _DISPATCHER.reset(token)
