"""Shared incumbent-bound exchange for split branch-and-bound searches.

When a giant component's enumeration is split into subtree tasks, each
chunk would otherwise prune only against the upper bounds *it* derives
— strictly weaker than the serial search, which folds every frontier
node's Eq. (6) upper at each level. This module restores near-serial
pruning strength: one shared best-cost cell per split component, read
lock-free at level boundaries and published on improvement
(:meth:`SlotBound.tighten`, wired into
:meth:`repro.core.single.frontier.SearchKernel.advance`).

Soundness does not depend on synchronization: every value ever written
is the cost of a concrete candidate set, hence an upper bound on the
optimum, and the kernel prunes strictly (``lower > best_upper``) — a
lost update or a stale read only loosens a bound, never drops an
optimal set. Bound exchange may only *prune*; it cannot change which
set the search selects. The one exception is :meth:`BoundExchange.abandon`,
written only once a search has tripped its budget and its result will
never be read.

Transport: a ``multiprocessing.RawArray`` of C doubles allocated in the
parent **before** the worker pool starts. Under the ``fork`` start
method (Linux, the platform the executor targets) workers inherit the
module-level :data:`_ARRAY` and the shared mapping with it, so subtree
specs carry only a slot index. Under ``spawn`` the global is absent in
workers and :func:`slot_bound` returns ``None`` — subtree tasks then
run with their local bounds only, which is slower but equally correct.
"""

from __future__ import annotations

import ctypes
from multiprocessing.sharedctypes import RawArray
from typing import Optional

from repro.core.single.frontier import IncumbentBound

#: incumbent slots per run; components beyond this run without exchange
DEFAULT_SLOTS = 64

#: parent-allocated shared array, fork-inherited by pool workers
_ARRAY = None

_INF = float("inf")


class BoundExchange:
    """Parent-side owner of one run's shared incumbent slots."""

    def __init__(self, slots: int = DEFAULT_SLOTS) -> None:
        self.array = RawArray(ctypes.c_double, slots)
        for index in range(slots):
            self.array[index] = _INF
        self._next = 0

    def acquire(self, seed: float) -> Optional[int]:
        """Claim the next slot, seeded with the parent's incumbent.

        Returns ``None`` when every slot is taken — the affected
        component simply runs without exchange (sound, just slower).
        Slots are never reused within a run, so a straggler subtree of
        an abandoned search can keep writing its slot harmlessly.
        """
        if self._next >= len(self.array):
            return None
        slot = self._next
        self._next += 1
        self.array[slot] = seed
        return slot

    def abandon(self, slot: Optional[int]) -> None:
        """Stop the in-flight chunks of an abandoned search early.

        Writes ``-inf``, which every chunk reading the slot adopts at
        its next level boundary, pruning its whole frontier. Only for a
        search whose result is never read (after a budget trip): the
        marker is not the cost of any repair.
        """
        if slot is not None:
            self.array[slot] = -_INF


class SlotBound(IncumbentBound):
    """One process's view of a shared incumbent slot.

    Reads stabilize with a double-read loop (an aligned 8-byte store is
    not torn on the supported platforms, but re-reading until two loads
    agree costs nothing and removes the assumption). Counters are
    process-local; subtree workers ship them back with their results.
    """

    __slots__ = ("_array", "_slot", "hits", "publishes")

    def __init__(self, array, slot: int) -> None:
        self._array = array
        self._slot = slot
        self.hits = 0
        self.publishes = 0

    def tighten(self, current: float) -> float:
        array, slot = self._array, self._slot
        value = array[slot]
        check = array[slot]
        while check != value:
            value = check
            check = array[slot]
        if value < current:
            self.hits += 1
            return value
        if current < value:
            array[slot] = current
            self.publishes += 1
        return current


def install(array) -> None:
    """Make *array* the process's shared bound array (parent, pre-fork)."""
    global _ARRAY
    _ARRAY = array


def clear() -> None:
    """Drop the shared array reference (parent, after the pool closes)."""
    global _ARRAY
    _ARRAY = None


def slot_bound(slot: Optional[int]):
    """The :class:`SlotBound` for *slot*, or ``None`` when unavailable."""
    if slot is None or _ARRAY is None:
        return None
    return SlotBound(_ARRAY, slot)
