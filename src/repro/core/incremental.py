"""Incremental repair: fit once, repair arriving tuples in O(search).

Batch repair recomputes violation graphs from scratch; a feed that
receives a handful of records per second should not. The incremental
repairer splits the paper's pipeline at its natural seam:

* :meth:`IncrementalRepairer.fit` runs the expensive part once on a
  reference instance — per-FD violation graphs, (dominance-seeded)
  independent sets, and one target tree per FD-graph component;
* :meth:`IncrementalRepairer.repair_record` then answers "how should
  this one tuple look" by checking its per-FD patterns against the
  fitted sets and, if any is unresolved, rewriting the component
  attributes to the nearest fitted target (the same rule the batch
  algorithms apply);
* :meth:`IncrementalRepairer.repair_records` serves a batch: it
  prefetches the batch's distance vectors per component, then calls
  ``repair_record`` per record.

The fitted sets are read-only by default — arriving garbage cannot
corrupt the model. With ``absorb=True``, a record whose patterns are
FT-consistent with every fitted set (a genuinely new, clean entity) is
*absorbed*: its patterns join the sets and the affected component's
target tree is rebuilt, so later look-alikes repair toward it.

That consistency check runs over per-FD candidate indexes
(:class:`_FDIndex`) instead of scanning every fitted element: for each
FD attribute with positive Eq. (2) weight, the per-attribute distance
of a violating element is at most ``tau / weight``, which q-gram
postings (strings) or the sorted band order (numbers) of the shared
:class:`~repro.index.registry.AttributeIndexRegistry` answer. The
per-attribute candidate sets are intersected and only the survivors are
verified exactly, so the verdict equals the linear scan's
(``tests/oracles.py``; ``tests/test_serve_equivalence.py`` checks it,
absorb mode included). Counters (merged into ``repro.obs`` by the
service):

* ``serve_elements_total`` — elements the linear scan would examine;
* ``serve_elements_examined`` — elements the indexed check verified;
* ``serve_index_probes`` / ``serve_index_rebuilds`` — probe traffic,
  and FD indexes rebuilt because absorb grew their elements;
* ``target_tree_*`` — the components' tree searches
  (:meth:`IncrementalRepairer.tree_counters`).
"""

from __future__ import annotations

import numbers
from contextlib import ExitStack
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.constraints import FD
from repro.core.distances import DistanceModel, Weights
from repro.core.engine import Repairer
from repro.core.multi.fdgraph import component_attributes, fd_components
from repro.core.multi.target_tree import _BATCH_QUERIES, TargetTree
from repro.core.repair import CellEdit
from repro.core.violation import PreparedProjection
from repro.dataset.relation import Attribute, Relation, Schema
from repro.index.registry import AttributeIndexRegistry
from repro.obs import span

#: mirror of the blocker's float-budget slack (see index/blocking.py)
_EPS = 1e-9
#: what a numeric attribute accepts; the concrete types come first
#: because the ``numbers.Real`` ABC check is slow
_NUMBERS = (int, float, numbers.Real)


class NotFittedError(RuntimeError):
    """repair_record was called before fit."""


class InvalidRecordError(KeyError):
    """A record lacks a constrained attribute or has a non-number in a
    numeric one; raised before the record changes any state."""


class _FDIndex:
    """Per-FD candidate index over one component's fitted elements.

    One filter per FD attribute with positive Eq. (2) weight and no
    distance override: the attribute's distinct element values with
    their element postings, probed through the shared registry.
    """

    def __init__(
        self,
        fd: FD,
        elements: Sequence[Tuple],
        model: DistanceModel,
        registry: AttributeIndexRegistry,
        namespace: str,
    ) -> None:
        self.n_elements = len(elements)
        self._registry = registry
        n_lhs = len(fd.lhs)
        #: (FD position, registry key, weight, numeric spread or None,
        #: distinct values, element postings per distinct value)
        self._filters: List[
            Tuple[int, str, float, Optional[float], List, List[List[int]]]
        ] = []
        for pos, attr in enumerate(fd.attributes):
            weight = model.weights.lhs if pos < n_lhs else model.weights.rhs
            usable = weight > 0.0 and not model.has_override(attr)
            if not usable:
                continue
            spread = model.spread(attr) if model.is_numeric(attr) else None
            distinct: List = []
            postings: List[List[int]] = []
            index_of: Dict = {}
            for ei, element in enumerate(elements):
                value = (
                    str(element[pos]) if spread is None else float(element[pos])
                )
                vid = index_of.setdefault(value, len(distinct))
                if vid == len(distinct):
                    distinct.append(value)
                    postings.append([])
                postings[vid].append(ei)
            self._filters.append(
                (pos, f"{namespace}:{attr}", weight, spread, distinct, postings)
            )

    def candidates(
        self, pattern: Tuple, tau: float
    ) -> Optional[List[int]]:
        """Element indexes possibly FT-violating *pattern*, or ``None``.

        ``None`` means "no usable filter" — the caller scans linearly.
        The returned list is a superset of the elements within *tau*
        (per-attribute necessary conditions, intersected); the caller
        verifies each exactly.
        """
        survivors: Optional[set] = None
        for pos, key, weight, spread, distinct, postings in self._filters:
            limit = tau / weight
            if limit >= 1.0:
                continue  # every value passes: no filtering power
            if spread is None:
                vids = self._registry.qgram_probe(
                    key, distinct, str(pattern[pos]), limit
                )
            else:
                vids = self._registry.band_probe(
                    key, distinct, float(pattern[pos]), limit * spread + _EPS
                )
            hits: set = set()
            for vid in vids:
                hits.update(postings[vid])
            survivors = hits if survivors is None else (survivors & hits)
            if not survivors:
                return []
        return None if survivors is None else sorted(survivors)


class _Component:
    """Fitted state for one connected FD-graph component."""

    def __init__(
        self,
        fds: Sequence[FD],
        elements_per_fd: List[List[Tuple]],
        model: DistanceModel,
    ) -> None:
        self.fds = list(fds)
        self.attributes: Tuple[str, ...] = tuple(component_attributes(fds))
        self.elements_per_fd = [list(e) for e in elements_per_fd]
        self._element_sets = [set(e) for e in elements_per_fd]
        self._model = model
        self.tree = TargetTree(self.fds, self.elements_per_fd, model)
        #: search counters of the trees absorb has replaced
        self._retired_counters: Dict[str, int] = {}
        #: attributes compared as numbers: a record must carry numbers there
        self.numeric = tuple(a for a in self.attributes if model.is_numeric(a))
        #: per-FD candidate indexes, built on the first probe and rebuilt
        #: when absorb has grown that FD's elements
        self._indexes: List[Optional[_FDIndex]] = [None] * len(self.fds)

    def tree_counters(self) -> Dict[str, int]:
        """Search counters summed over every tree this component built."""
        out = dict(self._retired_counters)
        for name, value in self.tree.counters().items():
            out[name] = out.get(name, 0) + value
        return out

    def resolved(self, record: Mapping[str, object]) -> bool:
        """Every one of the record's patterns is a fitted element."""
        for fd, members in zip(self.fds, self._element_sets):
            if tuple(record[a] for a in fd.attributes) not in members:
                return False
        return True

    def consistent_everywhere(
        self,
        record: Mapping[str, object],
        thresholds: Dict[FD, float],
        registry: AttributeIndexRegistry,
        counters: Dict[str, int],
    ) -> bool:
        """No fitted element FT-violates any of the record's patterns.

        Per FD, the candidate index narrows the fitted elements to a
        superset of the violating ones, and each candidate is verified
        with the record's pattern prepared **once per FD**
        (:class:`~repro.core.violation.PreparedProjection`: one Myers
        PEQ table per attribute). The verdict equals a linear scan of
        every element with the same exact predicate.
        """
        for pos, (fd, elements) in enumerate(
            zip(self.fds, self.elements_per_fd)
        ):
            pattern = tuple(record[a] for a in fd.attributes)
            tau = thresholds[fd]
            counters["serve_elements_total"] += len(elements)
            index = self._indexes[pos]
            if index is None or index.n_elements != len(elements):
                if index is not None:
                    counters["serve_index_rebuilds"] += 1
                # FD position + attribute is a unique registry key:
                # distinct components share no attribute
                index = _FDIndex(fd, elements, self._model, registry, f"fd{pos}")
                self._indexes[pos] = index
            found = index.candidates(pattern, tau)
            candidate_ids: Sequence[int] = (
                range(len(elements)) if found is None else found
            )
            counters["serve_elements_examined"] += len(candidate_ids)
            counters["serve_index_probes"] += 1
            prepared: Optional[PreparedProjection] = None
            for ei in candidate_ids:
                element = elements[ei]
                if element == pattern:
                    continue
                if prepared is None:
                    prepared = PreparedProjection(self._model, fd, pattern)
                if prepared.distance_within(element, tau) is not None:
                    return False
        return True

    def absorb(self, record: Mapping[str, object]) -> None:
        changed = False
        for fd, elements, members in zip(
            self.fds, self.elements_per_fd, self._element_sets
        ):
            pattern = tuple(record[a] for a in fd.attributes)
            if pattern not in members:
                elements.append(pattern)
                members.add(pattern)
                changed = True
        if changed:
            self._retired_counters = self.tree_counters()
            self.tree = TargetTree(self.fds, self.elements_per_fd, self._model)


class IncrementalRepairer:
    """Fit on a reference instance, then repair records one at a time.

    Parameters mirror :class:`~repro.core.engine.Repairer` where they
    apply; set selection uses the (dominance-seeded) per-FD greedy.
    Thread-confined, like the distance model it holds.

    >>> from repro.dataset.citizens import (
    ...     CITIZENS_FDS, CITIZENS_THRESHOLDS, citizens_clean)
    >>> repairer = IncrementalRepairer(
    ...     CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS
    ... ).fit(citizens_clean())
    >>> record = citizens_clean().as_record(0)
    >>> repairer.repair_record(record) == (dict(record), [])
    True
    """

    def __init__(
        self,
        fds: Sequence[FD],
        weights: Weights = Weights(),
        thresholds=None,
        absorb: bool = False,
    ) -> None:
        if not fds:
            raise ValueError("at least one FD is required")
        self.fds: List[FD] = list(fds)
        self.weights = weights
        self._thresholds_spec = thresholds
        self.absorb = absorb
        self._components: Optional[List[_Component]] = None
        self._model: Optional[DistanceModel] = None
        self._thresholds: Optional[Dict[FD, float]] = None
        self.records_seen = 0
        self.records_repaired = 0
        self.records_absorbed = 0
        #: probe indexes behind the absorb-mode consistency check
        self._registry = AttributeIndexRegistry()
        self.counters: Dict[str, int] = dict.fromkeys(
            (
                "serve_elements_total",
                "serve_elements_examined",
                "serve_index_probes",
                "serve_index_rebuilds",
            ),
            0,
        )

    # ------------------------------------------------------------------
    def fit(self, relation: Relation) -> "IncrementalRepairer":
        """Learn the repair model from *relation* (ideally mostly clean)."""
        from repro.core.multi.appro import greedy_sets_per_fd

        facade = Repairer(
            self.fds, weights=self.weights, thresholds=self._thresholds_spec
        )
        model = facade.build_model(relation)
        thresholds = facade.resolve_thresholds(relation, model)
        components: List[_Component] = []
        for component_fds in fd_components(self.fds):
            _, elements = greedy_sets_per_fd(
                relation, component_fds, model, thresholds, seed_dominant=True
            )
            components.append(_Component(component_fds, elements, model))
        self._components = components
        self._model = model
        self._thresholds = thresholds
        return self

    def tree_counters(self) -> Dict[str, int]:
        """Target-tree search counters summed over the fitted components."""
        out: Dict[str, int] = {}
        for component in self._components or ():
            for name, value in component.tree_counters().items():
                out[name] = out.get(name, 0) + value
        return out

    @property
    def is_fitted(self) -> bool:
        return self._components is not None

    def _check_record(
        self, components: List[_Component], record: Mapping[str, object]
    ) -> None:
        """Raise :class:`InvalidRecordError` for a record no component
        can take: a constrained attribute missing, or a non-number in a
        numeric one."""
        missing = [
            a for c in components for a in c.attributes if a not in record
        ]
        if missing:
            raise InvalidRecordError(
                f"record is missing attribute(s): {missing}"
            )
        not_numbers = [
            a
            for c in components
            for a in c.numeric
            if not isinstance(record[a], _NUMBERS)
        ]
        if not_numbers:
            raise InvalidRecordError(
                f"record has non-numeric value(s) for: {not_numbers}"
            )

    # ------------------------------------------------------------------
    def repair_record(
        self, record: Mapping[str, object]
    ) -> Tuple[Dict[str, object], List[CellEdit]]:
        """Repair one record; returns (repaired record, pseudo-edits).

        Edits use tid 0 (records have no tuple id); attributes outside
        every constraint pass through untouched. A record missing a
        constrained attribute, or carrying a non-number in a numeric
        one, raises :class:`InvalidRecordError` and leaves the model
        unchanged.
        """
        components = self._components
        if components is None:
            raise NotFittedError("call fit() before repair_record()")
        assert self._thresholds is not None
        self._check_record(components, record)
        self.records_seen += 1
        repaired = dict(record)
        edits: List[CellEdit] = []
        absorbed = False
        for component in components:
            if component.resolved(repaired):
                continue
            if self.absorb and component.consistent_everywhere(
                repaired, self._thresholds, self._registry, self.counters
            ):
                component.absorb(repaired)
                absorbed = True
                continue
            values = tuple(repaired[a] for a in component.attributes)
            target, _cost = component.tree.nearest_target(values)
            for attr, new in zip(component.attributes, target.values):
                old = repaired[attr]
                if old != new:
                    edits.append(CellEdit(0, attr, old, new))
                    repaired[attr] = new
        if absorbed:
            self.records_absorbed += 1
        if edits:
            self.records_repaired += 1
        return repaired, edits

    def repair_records(
        self, records: Sequence[Mapping[str, object]]
    ) -> List[Union[Tuple[Dict[str, object], List[CellEdit]], Exception]]:
        """:meth:`repair_record` of every record, in order; each slot
        holds ``(repaired record, edits)`` or the exception that record
        raised. Per chunk of ``_BATCH_QUERIES`` records, each component
        first prefetches (:meth:`TargetTree.prefetched`) the vectors of
        the valid records it does not resolve. Results equal a sequential
        :meth:`repair_record` loop: an absorb that replaces a tree only
        drops its prefetch, and the new tree computes on demand.
        """
        components = self._components
        if components is None:
            raise NotFittedError("call fit() before repair_records()")
        results: List = []
        for start in range(0, len(records), _BATCH_QUERIES):
            chunk = records[start: start + _BATCH_QUERIES]
            with ExitStack() as prefetches:
                with span("serve.prefetch", records=len(chunk)):
                    valid = []
                    for record in chunk:
                        try:
                            self._check_record(components, record)
                        except InvalidRecordError:
                            continue
                        valid.append(record)
                    for component in components:
                        try:
                            queries = [
                                tuple(record[a] for a in component.attributes)
                                for record in valid
                                if not component.resolved(record)
                            ]
                            if queries:
                                prefetches.enter_context(
                                    component.tree.prefetched(queries)
                                )
                        except Exception:  # noqa: BLE001
                            pass  # the record at fault raises it in its own repair
                for record in chunk:
                    try:
                        results.append(self.repair_record(record))
                    except Exception as exc:  # noqa: BLE001 — this record only
                        results.append(exc)
        return results

    def repair_batch(self, relation: Relation) -> Relation:
        """Repair every tuple of *relation* through :meth:`repair_records`.

        When a tuple's repair fails, the first such error is raised
        after every tuple has been served.
        """
        out = Relation(relation.schema)
        names = relation.schema.names
        records = [relation.as_record(tid) for tid in relation.tids()]
        for result in self.repair_records(records):
            if isinstance(result, Exception):
                raise result
            repaired, _ = result
            out.append([repaired[a] for a in names])
        return out


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
_PERSIST_VERSION = 1


def _schema_to_spec(schema) -> List[List[str]]:
    return [[attr.name, attr.kind] for attr in schema]


def _schema_from_spec(spec) -> Schema:
    return Schema(Attribute(name, kind) for name, kind in spec)


def save_model(repairer: IncrementalRepairer, path) -> None:
    """Persist a fitted :class:`IncrementalRepairer` to a JSON file.

    Only the fitted state travels: schema, numeric spreads, FDs,
    thresholds, per-component independent-set elements, counters.
    Distance-function overrides are not serializable and must be
    re-supplied at load time if used.
    """
    import json

    if repairer._components is None or repairer._model is None:
        raise NotFittedError("fit() the repairer before saving it")
    assert repairer._thresholds is not None
    payload = {
        "version": _PERSIST_VERSION,
        "schema": _schema_to_spec(repairer._model.schema),
        "weights": [repairer.weights.lhs, repairer.weights.rhs],
        "spreads": repairer._model.spreads,
        "absorb": repairer.absorb,
        "fds": [
            {"lhs": list(fd.lhs), "rhs": list(fd.rhs), "name": fd.name}
            for fd in repairer.fds
        ],
        "thresholds": {
            fd.name: repairer._thresholds[fd] for fd in repairer.fds
        },
        "components": [
            {
                "fd_names": [fd.name for fd in component.fds],
                "elements": [
                    [list(element) for element in elements]
                    for elements in component.elements_per_fd
                ],
            }
            for component in repairer._components
        ],
        "counters": {
            "records_seen": repairer.records_seen,
            "records_repaired": repairer.records_repaired,
            "records_absorbed": repairer.records_absorbed,
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def load_model(path) -> IncrementalRepairer:
    """Restore a fitted :class:`IncrementalRepairer` from a JSON file."""
    import json

    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != _PERSIST_VERSION:
        raise ValueError(
            f"unsupported model version {payload.get('version')!r}"
        )
    schema = _schema_from_spec(payload["schema"])
    weights = Weights(*payload["weights"])
    fds = [
        FD(tuple(spec["lhs"]), tuple(spec["rhs"]), name=spec["name"])
        for spec in payload["fds"]
    ]
    by_name = {fd.name: fd for fd in fds}
    thresholds = {
        by_name[name]: float(tau)
        for name, tau in payload["thresholds"].items()
    }
    model = DistanceModel.from_parts(schema, payload["spreads"], weights)

    def _revive(values, fd_attrs):
        kinds = [schema.kind_of(a) for a in fd_attrs]
        return tuple(
            float(v) if kind == "numeric" else v
            for v, kind in zip(values, kinds)
        )

    repairer = IncrementalRepairer(
        fds,
        weights=weights,
        thresholds=thresholds,
        absorb=bool(payload["absorb"]),
    )
    components: List[_Component] = []
    for spec in payload["components"]:
        component_fds = [by_name[name] for name in spec["fd_names"]]
        elements = [
            [_revive(values, fd.attributes) for values in element_list]
            for fd, element_list in zip(component_fds, spec["elements"])
        ]
        components.append(_Component(component_fds, elements, model))
    repairer._components = components
    repairer._model = model
    repairer._thresholds = thresholds
    counters = payload.get("counters", {})
    repairer.records_seen = counters.get("records_seen", 0)
    repairer.records_repaired = counters.get("records_repaired", 0)
    repairer.records_absorbed = counters.get("records_absorbed", 0)
    return repairer
