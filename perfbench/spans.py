"""Span recording for the traced benchmark run, from outside the program.

The benchmark does not rely on the program's own tracer. It replaces each
layer's public entry point, at every place the engine looks it up, with a
wrapper that records one span per call: ``[layer, start, end, parent,
attrs]``. Spans live in a list in memory and are written out when the run
ends. A layer's self time is the duration of its spans minus the part
covered by their child spans, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List

#: (layer, "module:attribute path") of every wrapped entry point. A
#: module-level function is replaced in every ``repro`` module that holds
#: it (``from x import f`` copies the name); a method on its class.
ENTRY_POINTS = (
    ("dataset", "repro.dataset.csvio:read_csv"),
    ("exec", "repro.exec.executor:RepairExecutor.repair"),
    ("exec", "repro.exec.executor:RepairExecutor.repair_many"),
    ("graph", "repro.core.graph:ViolationGraph.build"),
    ("index", "repro.index.simjoin:SimilarityJoin.join"),
    ("single.mis", "repro.core.single.mis:enumerate_maximal_independent_sets"),
    ("single.mis", "repro.core.single.mis:best_maximal_independent_set"),
    ("single.greedy", "repro.core.single.greedy:greedy_independent_set"),
    ("multi.combine", "repro.core.multi.exact:repair_multi_fd_exact"),
    ("multi.greedy", "repro.core.multi.greedy:repair_multi_fd_greedy"),
    ("multi.tree_build", "repro.core.multi.targets:join_targets"),
    ("multi.tree_build", "repro.core.multi.target_tree:TargetTree.__init__"),
    ("multi.tree_search", "repro.core.multi.target_tree:TargetTree.nearest_target"),
    ("serve.fit", "repro.serve.service:RepairService.fit"),
    ("serve.repair_record", "repro.serve.fastpath:IndexedRepairer.repair_record"),
)

#: per-call attributes taken from an entry point's return value
MEASURES: Dict[str, Callable[[Any], Dict[str, int]]] = {
    "graph": lambda graph: {"vertices": len(graph), "edges": graph.edge_count},
    "single.mis": lambda sets: {"sets": len(sets) if isinstance(sets, list) else 1},
}


class Recorder:
    """In-memory span list with a stack of open spans (one thread)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def _open(self, layer: str) -> list:
        entry = [layer, time.perf_counter(), 0.0,
                 self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(entry)
        return entry

    def _close(self, entry: list) -> None:
        self._stack.pop()
        entry[2] = time.perf_counter()

    @contextmanager
    def span(self, layer: str) -> Iterator[list]:
        entry = self._open(layer)
        try:
            yield entry
        finally:
            self._close(entry)

    def wrap(self, layer: str, fn: Callable) -> Callable:
        measure = MEASURES.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(entry)
            if measure is not None:
                entry[4] = measure(result)
            return result

        return traced

    def export(self) -> List[Dict[str, Any]]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             **({"attrs": attrs} if attrs else {})}
            for name, start, end, parent, attrs in self.spans
        ]


def _resolve(target: str):
    module_name, path = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute


@contextmanager
def instrumented(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every entry point in :data:`ENTRY_POINTS`; restore on exit."""
    undo: List[tuple] = []
    try:
        for layer, target in ENTRY_POINTS:
            owner, attribute = _resolve(target)
            if isinstance(owner, type):
                raw = owner.__dict__[attribute]
                if isinstance(raw, classmethod):
                    patched: Any = classmethod(recorder.wrap(layer, raw.__func__))
                else:
                    patched = recorder.wrap(layer, raw)
                undo.append((owner, attribute, raw))
                setattr(owner, attribute, patched)
                continue
            original = getattr(owner, attribute)
            patched = recorder.wrap(layer, original)
            for name, module in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and \
                        getattr(module, attribute, None) is original:
                    undo.append((module, attribute, original))
                    setattr(module, attribute, patched)
        yield recorder
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


def descendants(spans: List[list], root: int) -> List[bool]:
    """Mask of *root* and the spans opened under it."""
    inside = [False] * len(spans)
    inside[root] = True
    for index in range(root + 1, len(spans)):
        parent = spans[index][3]
        inside[index] = parent >= 0 and inside[parent]
    return inside


def self_times(spans: List[list], root: int) -> Dict[str, float]:
    """Self seconds per layer over *root* and its descendants.

    The root's own self time is returned under ``unattributed``: the part
    of the timed phase that no wrapped layer covers. The values sum to the
    root span's duration.
    """
    inside = descendants(spans, root)
    children = [0.0] * len(spans)
    for index, entry in enumerate(spans):
        if inside[index] and index != root:
            children[entry[3]] += entry[2] - entry[1]
    totals: Dict[str, float] = {}
    for index, entry in enumerate(spans):
        if inside[index]:
            name = "unattributed" if index == root else entry[0]
            totals[name] = totals.get(name, 0.0) + (
                entry[2] - entry[1] - children[index]
            )
    return totals


def span_problems(spans: List[list], root: int, wall_s: float,
                  tolerance_s: float) -> List[str]:
    """Ways the span tree of one traced pass is unsound; empty when sound.

    Every span is closed; every child lies inside its parent's interval;
    no span outside the tree overlaps the root; every span's self time is
    non-negative; and the root lasts as long as the pass's measured wall
    time, within *tolerance_s*.
    """
    problems = []
    children = [0.0] * len(spans)
    for index, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {index} ({name}) never closed")
        elif parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {index} ({name}) outside its parent {parent}")
            children[parent] += end - start
        elif index != root:
            r_start, r_end = spans[root][1], spans[root][2]
            if start < r_end and end > r_start:
                problems.append(f"span {index} ({name}) overlaps the root outside it")
    for index, (name, start, end, _, _) in enumerate(spans):
        if end - start - children[index] < -1e-9:
            problems.append(f"span {index} ({name}) has negative self time")
    root_s = spans[root][2] - spans[root][1]
    if abs(root_s - wall_s) > tolerance_s:
        problems.append(f"root span {root_s:.6f} s against a measured {wall_s:.6f} s")
    return problems


def durations(spans: List[list], layer: str) -> float:
    """Total seconds of the spans of *layer* (for set-up layers)."""
    return sum(end - start for name, start, end, _, _ in spans if name == layer)


def attr_total(spans: List[list], root: int, layer: str, key: str) -> int:
    """Sum of one per-call attribute over the *layer* spans under *root*."""
    inside = descendants(spans, root)
    return sum((entry[4] or {}).get(key, 0)
               for index, entry in enumerate(spans)
               if inside[index] and entry[0] == layer)
