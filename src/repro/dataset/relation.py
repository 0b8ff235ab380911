"""Columnar, dictionary-encoded relational substrate.

The paper's repair model operates on a single relation instance ``D`` of a
schema ``R``: cells are addressed by (tuple id, attribute), attributes are
typed *string* or *numeric* (the distance function dispatches on the
type), and the **closed-world** repair model restricts repaired values to
the *active domain* of each attribute — the set of values that already
occur in ``D``.

pandas is not available in this environment, so this module provides the
small, typed table abstraction the rest of the library builds on:

* :class:`Attribute` — a named, typed column.
* :class:`Schema` — an ordered attribute list with name -> index lookup.
* :class:`ValueDictionary` — an append-only per-attribute intern pool
  mapping each distinct value to a small integer id (and back).
* :class:`Relation` — columnar storage: one machine-int array of value
  ids per attribute, decoded through the attribute's dictionary.

**Storage layout.** Each attribute holds a :class:`ValueDictionary`
(every distinct value stored exactly once) and an ``array('I')`` column
of value ids, so a cell costs 4 bytes plus its amortized share of one
interned Python object — flat per-tuple memory at paper scale, versus a
pointer-per-cell row-major layout. The **intern invariant** — within one
relation, two cells of an attribute hold equal values iff they hold
equal ids — is what lets the hot paths (pattern grouping, blocking
partitions, index caches) dedupe work per distinct id instead of
re-hashing raw strings; see ``docs/dataset.md``.

The semantic contract is unchanged from the row-major substrate: cell
get/set, active domains in first-occurrence order, numeric ranges,
projection helpers, and value-based equality all behave identically.
Typed accessors (:meth:`Relation.column`, :meth:`Relation.value_id`,
:meth:`Relation.decode`, :meth:`Relation.project_ids`) expose the
encoding; :meth:`Relation.as_record` / :meth:`Relation.from_records`
convert to and from attribute-name-keyed dicts.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

#: Attribute kinds understood by the distance model.
STRING = "string"
NUMERIC = "numeric"

_VALID_KINDS = (STRING, NUMERIC)

#: A cell address: (tuple id, attribute name).
Cell = Tuple[int, str]

#: array typecode of the id columns (C unsigned int: 4 bytes, 4G ids)
_ID_TYPECODE = "I"


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a relation.

    ``kind`` is either :data:`STRING` (compared with normalized edit
    distance) or :data:`NUMERIC` (compared with normalized Euclidean
    distance), mirroring Eq. (1) of the paper.
    """

    name: str
    kind: str = STRING

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(
                f"attribute {self.name!r} has unknown kind {self.kind!r}; "
                f"expected one of {_VALID_KINDS}"
            )


class Schema:
    """An ordered collection of :class:`Attribute` with fast name lookup."""

    def __init__(self, attributes: Iterable[Attribute]) -> None:
        self.attributes: Tuple[Attribute, ...] = tuple(attributes)
        if not self.attributes:
            raise ValueError("a schema needs at least one attribute")
        self._index: Dict[str, int] = {}
        for pos, attr in enumerate(self.attributes):
            if attr.name in self._index:
                raise ValueError(f"duplicate attribute name {attr.name!r}")
            self._index[attr.name] = pos

    @classmethod
    def of(cls, *names: str, numeric: Sequence[str] = ()) -> "Schema":
        """Build a schema from attribute *names*.

        Attributes listed in *numeric* get the :data:`NUMERIC` kind, the
        rest are :data:`STRING`.

        >>> Schema.of("City", "State", "Level", numeric=["Level"]).names
        ('City', 'State', 'Level')
        """
        numeric_set = set(numeric)
        unknown = numeric_set.difference(names)
        if unknown:
            raise ValueError(f"numeric attributes not in schema: {sorted(unknown)}")
        return cls(
            Attribute(n, NUMERIC if n in numeric_set else STRING) for n in names
        )

    @property
    def names(self) -> Tuple[str, ...]:
        """Attribute names in schema order."""
        return tuple(a.name for a in self.attributes)

    def index_of(self, name: str) -> int:
        """Position of attribute *name*; raises ``KeyError`` if absent."""
        return self._index[name]

    def indexes_of(self, names: Iterable[str]) -> Tuple[int, ...]:
        """Positions of several attributes, preserving the given order."""
        return tuple(self._index[n] for n in names)

    def kind_of(self, name: str) -> str:
        """The kind (:data:`STRING` / :data:`NUMERIC`) of attribute *name*."""
        return self.attributes[self._index[name]].kind

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash(self.attributes)

    def __repr__(self) -> str:
        cols = ", ".join(f"{a.name}:{a.kind}" for a in self.attributes)
        return f"Schema({cols})"


class ValueDictionary:
    """Append-only intern pool of one attribute: value <-> small int id.

    Ids are dense, assigned in first-intern order, and never reused or
    remapped — copies of a relation share their dictionaries (interning
    only ever appends, so an id minted by one copy is invisible to the
    columns of another). Equal values always intern to equal ids, which
    is the invariant every id-keyed hot path relies on.

    ``probes`` / ``hits`` count interning traffic (a hit = the value was
    already present); their ratio is the ``dict_hit_rate`` counter the
    execution layer reports.
    """

    __slots__ = ("_values", "_ids", "probes", "hits")

    def __init__(self, values: Iterable[Any] = ()) -> None:
        self._values: List[Any] = []
        self._ids: Dict[Any, int] = {}
        self.probes = 0
        self.hits = 0
        for value in values:
            self._values.append(value)
            self._ids.setdefault(value, len(self._values) - 1)

    def intern(self, value: Any) -> int:
        """The id of *value*, minting a new one on first sight."""
        self.probes += 1
        vid = self._ids.get(value)
        if vid is not None:
            self.hits += 1
            return vid
        vid = len(self._values)
        self._values.append(value)
        self._ids[value] = vid
        return vid

    def id_of(self, value: Any) -> int:
        """The id of an already-interned *value*; ``KeyError`` if absent."""
        return self._ids[value]

    def decode(self, vid: int) -> Any:
        """The value with id *vid*."""
        return self._values[vid]

    def values(self) -> Tuple[Any, ...]:
        """Every interned value, in id order.

        Includes values no longer referenced by any cell (overwritten by
        ``set_value``); column-level statistics must scan the column.
        """
        return tuple(self._values)

    def __contains__(self, value: object) -> bool:
        return value in self._ids

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"ValueDictionary({len(self)} values)"

    # -- pickling (slots need an explicit state protocol) ---------------
    def __getstate__(self) -> Tuple[List[Any], int, int]:
        # _ids is derivable from _values; shipping only the value list
        # halves the payload and re-establishes the invariant on load.
        return (self._values, self.probes, self.hits)

    def __setstate__(self, state: Tuple[List[Any], int, int]) -> None:
        values, probes, hits = state
        self._values = values
        self._ids = {}
        for vid, value in enumerate(values):
            self._ids.setdefault(value, vid)
        self.probes = probes
        self.hits = hits


class Relation:
    """A mutable, dictionary-encoded columnar relation instance.

    Tuple ids are the 0-based append positions and remain stable (the
    repair model modifies values, it never inserts or deletes tuples).
    Each attribute stores an ``array('I')`` of value ids decoded through
    its :class:`ValueDictionary`; see the module docstring for the
    layout and the intern invariant.
    """

    def __init__(self, schema: Schema, rows: Iterable[Sequence[Any]] = ()) -> None:
        self.schema = schema
        self._dicts: Tuple[ValueDictionary, ...] = tuple(
            ValueDictionary() for _ in schema.attributes
        )
        self._columns: List[array] = [
            array(_ID_TYPECODE) for _ in schema.attributes
        ]
        #: bumped on every mutation; cheap change detection for the
        #: executor's relation-shipping registry (repro.exec.shipping)
        self._version = 0
        self.extend(rows)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls, schema: Schema, records: Iterable[Mapping[str, Any]]
    ) -> "Relation":
        """Build a relation from mapping records keyed by attribute name."""
        names = schema.names
        return cls(schema, ([record[name] for name in names] for record in records))

    def append(self, row: Sequence[Any]) -> int:
        """Append *row* (schema order) and return its tuple id."""
        if len(row) != len(self.schema):
            raise ValueError(
                f"row has {len(row)} values, schema has {len(self.schema)}"
            )
        # Coerce the full row before interning anything, so a bad value
        # in one column cannot leave partial ids (or stale dictionary
        # entries) behind.
        coerced = [
            self._coerce(value, attr) for value, attr in zip(row, self.schema)
        ]
        for pos, value in enumerate(coerced):
            self._columns[pos].append(self._dicts[pos].intern(value))
        self._version += 1
        return len(self._columns[0]) - 1

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Bulk-append *rows*, streaming values straight into the columns.

        The one-pass encoded loader: per-column interning with the loop
        state hoisted out, so CSV reads and generators build dictionaries
        while they stream instead of materializing rows first.
        """
        attrs = self.schema.attributes
        width = len(attrs)
        numeric = tuple(attr.kind == NUMERIC for attr in attrs)
        interns = tuple(d.intern for d in self._dicts)
        appends = tuple(c.append for c in self._columns)
        count = 0
        for row in rows:
            if len(row) != width:
                raise ValueError(
                    f"row has {len(row)} values, schema has {width}"
                )
            coerced = [
                float(value)
                if numeric[pos]
                else str(value)
                for pos, value in enumerate(row)
            ]
            for pos, value in enumerate(row):
                if numeric[pos] and isinstance(value, bool):
                    raise TypeError(
                        f"boolean value for numeric attribute "
                        f"{attrs[pos].name!r}"
                    )
            for pos in range(width):
                appends[pos](interns[pos](coerced[pos]))
            count += 1
        if count:
            self._version += 1

    @staticmethod
    def _coerce(value: Any, attr: Attribute) -> Any:
        if attr.kind == NUMERIC:
            if isinstance(value, bool):
                raise TypeError(f"boolean value for numeric attribute {attr.name!r}")
            return float(value)
        return str(value)

    def copy(self) -> "Relation":
        """Copy the id columns; dictionaries (append-only) are shared.

        Schema objects are shared too (immutable). Sharing dictionaries
        makes copies cheap — a copy is one C-level array clone per
        attribute — and is safe because ids are never remapped: values
        interned through one copy simply go unused by the other.
        """
        clone = Relation.__new__(Relation)
        clone.schema = self.schema
        clone._dicts = self._dicts
        clone._columns = [array(_ID_TYPECODE, col) for col in self._columns]
        clone._version = 0
        return clone

    # ------------------------------------------------------------------
    # Cell access
    # ------------------------------------------------------------------
    def value(self, tid: int, attribute: str) -> Any:
        """Value of the cell (*tid*, *attribute*)."""
        pos = self.schema.index_of(attribute)
        return self._dicts[pos].decode(self._columns[pos][tid])

    def set_value(self, tid: int, attribute: str, value: Any) -> None:
        """Overwrite the cell (*tid*, *attribute*) with *value*."""
        pos = self.schema.index_of(attribute)
        coerced = self._coerce(value, self.schema.attributes[pos])
        if tid < 0 or tid >= len(self._columns[pos]):
            raise IndexError(f"tuple id {tid} out of range")
        self._columns[pos][tid] = self._dicts[pos].intern(coerced)
        self._version += 1

    def row(self, tid: int) -> Tuple[Any, ...]:
        """The full tuple with id *tid*, in schema order."""
        return tuple(
            d.decode(col[tid]) for d, col in zip(self._dicts, self._columns)
        )

    def as_record(self, tid: int) -> Dict[str, Any]:
        """The tuple with id *tid* as an attribute-name-keyed dict."""
        return dict(zip(self.schema.names, self.row(tid)))

    def project(self, tid: int, attributes: Sequence[str]) -> Tuple[Any, ...]:
        """Projection of tuple *tid* on *attributes* (given order)."""
        return self.project_indexes(tid, self.schema.indexes_of(attributes))

    def project_indexes(self, tid: int, indexes: Sequence[int]) -> Tuple[Any, ...]:
        """Projection by pre-resolved schema positions (hot path)."""
        dicts = self._dicts
        columns = self._columns
        return tuple(dicts[i].decode(columns[i][tid]) for i in indexes)

    # ------------------------------------------------------------------
    # Encoded access (the id-level API the hot paths key on)
    # ------------------------------------------------------------------
    def value_id(self, tid: int, attribute: str) -> int:
        """The interned id of the cell (*tid*, *attribute*)."""
        return self._columns[self.schema.index_of(attribute)][tid]

    def decode(self, attribute: str, vid: int) -> Any:
        """The value behind id *vid* of *attribute*."""
        return self._dicts[self.schema.index_of(attribute)].decode(vid)

    def encode_value(self, attribute: str, value: Any) -> int:
        """Intern *value* (coerced to the attribute's kind) and return its id."""
        pos = self.schema.index_of(attribute)
        return self._dicts[pos].intern(
            self._coerce(value, self.schema.attributes[pos])
        )

    def column(self, attribute: str) -> memoryview:
        """The id column of *attribute* as a read-only zero-copy view.

        Equal ids mean equal values (the intern invariant), so consumers
        can group, count, or partition directly on the view without
        decoding; ``decode(attribute, vid)`` recovers values on demand.
        The view is a snapshot of the storage, not of the contents —
        in-place mutations through ``set_value`` remain visible.
        """
        return memoryview(
            self._columns[self.schema.index_of(attribute)]
        ).toreadonly()

    def column_array(self, attribute: str) -> Any:
        """The id column of *attribute* as a read-only zero-copy numpy view.

        Shares the underlying ``array('I')`` buffer (no copy): the view
        is invalidated by appends (which may reallocate the buffer) but
        tracks in-place ``set_value`` mutations, exactly like
        :meth:`column`. The dtype is the C ``unsigned int`` the column is
        stored as.
        """
        return np.frombuffer(self.column(attribute), dtype=np.uintc)

    def dictionary(self, attribute: str) -> ValueDictionary:
        """The :class:`ValueDictionary` of *attribute*."""
        return self._dicts[self.schema.index_of(attribute)]

    def project_ids(self, tid: int, indexes: Sequence[int]) -> Tuple[int, ...]:
        """Projection of tuple *tid* as value ids (grouping hot path).

        By the intern invariant, two tuples have equal id projections iff
        they have equal value projections — so grouping on id tuples
        (cheap int hashing) is exactly grouping on values.
        """
        columns = self._columns
        return tuple(columns[i][tid] for i in indexes)

    def dict_stats(self) -> Dict[str, Any]:
        """Aggregate encoding statistics (for profiles and run counters).

        ``dict_hit_rate`` is interning hits over probes across every
        attribute dictionary — near 1.0 for low-cardinality data, where
        the columnar layout pays off most.
        """
        rows = len(self)
        entries = sum(len(d) for d in self._dicts)
        probes = sum(d.probes for d in self._dicts)
        hits = sum(d.hits for d in self._dicts)
        return {
            "rows": rows,
            "attributes": len(self.schema),
            "cells": rows * len(self.schema),
            "dictionary_entries": entries,
            "encoded_bytes": sum(
                col.itemsize * len(col) for col in self._columns
            ),
            "intern_probes": probes,
            "intern_hits": hits,
            "dict_hit_rate": hits / probes if probes else 0.0,
        }

    # ------------------------------------------------------------------
    # Domains and statistics
    # ------------------------------------------------------------------
    def active_domain(self, attribute: str) -> List[Any]:
        """Distinct values of *attribute* in first-occurrence order.

        This is the closed-world candidate pool for repairs of that
        attribute (Section 2.2). Scans the column, not the dictionary:
        values overwritten by ``set_value`` stay interned but are no
        longer part of the domain.
        """
        pos = self.schema.index_of(attribute)
        decode = self._dicts[pos].decode
        seen: Dict[int, None] = {}
        for vid in self._columns[pos]:
            if vid not in seen:
                seen[vid] = None
        return [decode(vid) for vid in seen]

    def value_range(self, attribute: str) -> float:
        """max - min of a numeric attribute; the Euclidean normalizer.

        Returns 0.0 for an empty relation or a constant column.
        """
        if self.schema.kind_of(attribute) != NUMERIC:
            raise TypeError(f"attribute {attribute!r} is not numeric")
        pos = self.schema.index_of(attribute)
        column = self._columns[pos]
        if not column:
            return 0.0
        decode = self._dicts[pos].decode
        values = [decode(vid) for vid in set(column)]
        return float(max(values) - min(values))

    def value_counts(self, attributes: Sequence[str]) -> Dict[Tuple[Any, ...], int]:
        """Frequency of each distinct projection on *attributes*.

        Keys are in first-occurrence order, counted on id tuples and
        decoded once per distinct projection.
        """
        idx = self.schema.indexes_of(attributes)
        if not idx:
            return {(): len(self)} if len(self) else {}
        columns = [self._columns[i] for i in idx]
        counts: Dict[Tuple[int, ...], int] = {}
        for key in zip(*columns):
            counts[key] = counts.get(key, 0) + 1
        decoders = [self._dicts[i].decode for i in idx]
        return {
            tuple(d(vid) for d, vid in zip(decoders, key)): count
            for key, count in counts.items()
        }

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        decoders = [d.decode for d in self._dicts]
        for ids in zip(*self._columns):
            yield tuple(d(vid) for d, vid in zip(decoders, ids))

    def tids(self) -> range:
        """All tuple ids."""
        return range(len(self))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema != other.schema or len(self) != len(other):
            return False
        for pos in range(len(self.schema)):
            mine, theirs = self._columns[pos], other._columns[pos]
            da, db = self._dicts[pos], other._dicts[pos]
            if da is db:
                if mine != theirs:
                    return False
                continue
            # Distinct dictionaries may assign different ids to equal
            # values; verify the id translation once per distinct pair.
            translation: Dict[int, int] = {}
            for ia, ib in zip(mine, theirs):
                known = translation.get(ia)
                if known is not None:
                    if known != ib:
                        return False
                    continue
                if da.decode(ia) != db.decode(ib):
                    return False
                translation[ia] = ib
        return True

    def __repr__(self) -> str:
        return f"Relation({len(self)} tuples, {len(self.schema)} attributes)"

    # ------------------------------------------------------------------
    # Pretty printing (used by examples and reports)
    # ------------------------------------------------------------------
    def to_text(self, limit: Optional[int] = None) -> str:
        """Render the relation as a fixed-width text table."""
        names = self.schema.names
        total = len(self)
        shown = total if limit is None else min(limit, total)
        rendered = [
            [_fmt(v) for v in self.row(tid)] for tid in range(shown)
        ]
        widths = [
            max(len(name), *(len(r[i]) for r in rendered)) if rendered else len(name)
            for i, name in enumerate(names)
        ]
        header = "  ".join(n.ljust(w) for n, w in zip(names, widths))
        rule = "  ".join("-" * w for w in widths)
        body = [
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in rendered
        ]
        lines = [header, rule, *body]
        if limit is not None and total > limit:
            lines.append(f"... ({total - limit} more)")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
