"""One-shot relation shipping for the parallel executor.

The pre-1.2 executor embedded the full :class:`Relation` in every
:class:`~repro.exec.executor.ComponentTask`, so a run with ``C``
components pickled the relation ``C`` times through the worker pipes.
This module makes the relation a **pool-lifetime resource** instead:

* :func:`publish` registers a relation in a process-local registry and
  returns a tiny :class:`RelationRef` handle — the only relation-shaped
  thing a task carries. Per-task messages shrink to component ids,
  FD masks and the config.
* :func:`pack` encodes each published relation once with pickle
  protocol 5: the id columns travel as out-of-band buffers
  (``PickleBuffer`` frames over the ``array('I')`` storage, no
  intermediate pickle copy), the per-attribute dictionaries as one
  value list each (the id map is rebuilt on load).
* :func:`install` is the ``ProcessPoolExecutor`` *initializer*: each
  worker decodes the payload exactly once, before its first task. Under
  the default ``fork`` start method the registry is inherited
  copy-on-write and the decode is skipped entirely — the zero-copy fast
  path; under ``spawn`` the payload crosses the pipe once per worker
  rather than once per task.
* :func:`resolve` is how a task body (parent or worker) gets the actual
  relation back from its ref.

The executor threads the measured traffic through
:class:`~repro.exec.stats.ExecutionStats` and the ``execute`` span:
``relation_bytes_shipped`` (encoded payload bytes crossing process
boundaries: payload size × workers; 0 for serial runs and refs resolved
in-process), ``task_bytes_max`` / ``task_bytes_total`` (the per-task
request messages), and ``dict_hit_rate`` (the share of the input
relation's cells that repeat a value already in their dictionary). See
``docs/parallelism.md``.
"""

from __future__ import annotations

import itertools
import os
import pickle
import weakref
from array import array
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.dataset.relation import Relation, ValueDictionary

__all__ = [
    "RelationRef",
    "ShippedRelation",
    "publish",
    "resolve",
    "pack",
    "install",
    "encode_relation",
    "decode_relation",
    "installed_count",
    "clear_installed",
]


@dataclass(frozen=True)
class RelationRef:
    """A tiny, picklable handle to a published relation."""

    token: str

    def __repr__(self) -> str:  # keep task reprs readable
        return f"RelationRef({self.token})"


@dataclass(frozen=True)
class ShippedRelation:
    """One relation encoded for worker delivery (token + pickle-5 parts)."""

    token: str
    head: bytes
    frames: Tuple[bytes, ...]

    @property
    def nbytes(self) -> int:
        """Total encoded size in bytes."""
        return len(self.head) + sum(len(frame) for frame in self.frames)


#: relations published by this process (the parent side of a run); weak
#: so a registry entry never outlives its caller's relation
_PUBLISHED: "weakref.WeakValueDictionary[str, Relation]" = (
    weakref.WeakValueDictionary()
)

#: relations installed into this process by a pool initializer (worker
#: side); replaced wholesale on each install, so a long-lived worker
#: holds at most one pool's relations
_INSTALLED: Dict[str, Relation] = {}

_SEQ = itertools.count()


def publish(relation: Relation) -> RelationRef:
    """Register *relation* for shipping; idempotent per content version.

    The minted token is cached on the relation and reused as long as the
    relation is unmutated (its ``_version`` unchanged), so publishing the
    same relation for many tasks — or across ``detect`` then ``repair``
    — yields one registry entry and one encoded payload.
    """
    version = getattr(relation, "_version", 0)
    cached = getattr(relation, "_ship_token", None)
    if cached is not None:
        cached_version, token = cached
        if cached_version == version and _PUBLISHED.get(token) is relation:
            return RelationRef(token)
    token = f"r{os.getpid()}.{next(_SEQ)}"
    relation._ship_token = (version, token)  # type: ignore[attr-defined]
    _PUBLISHED[token] = relation
    return RelationRef(token)


def resolve(ref: RelationRef) -> Relation:
    """The relation behind *ref*, from either side of the pool boundary."""
    relation = _PUBLISHED.get(ref.token)
    if relation is None:
        relation = _INSTALLED.get(ref.token)
    if relation is None:
        raise KeyError(
            f"no relation for {ref!r}: publish() it in the parent and "
            f"ship the pack() payload through the pool initializer"
        )
    return relation


# ----------------------------------------------------------------------
# Encoding (pickle protocol 5, columns as out-of-band buffers)
# ----------------------------------------------------------------------
def encode_relation(relation: Relation) -> Tuple[bytes, Tuple[bytes, ...]]:
    """Encode *relation* as (head pickle, out-of-band column frames).

    The columnar substrate makes this cheap and compact: each attribute
    contributes its dictionary's value list (every distinct value once)
    plus a 4-byte-per-row id buffer lifted straight out of the
    ``array('I')`` storage.
    """
    pools = tuple(d.__getstate__() for d in relation._dicts)
    buffers: List[pickle.PickleBuffer] = []
    head = pickle.dumps(
        (
            relation.schema,
            pools,
            [pickle.PickleBuffer(column) for column in relation._columns],
        ),
        protocol=5,
        buffer_callback=buffers.append,
    )
    return head, tuple(buf.raw().tobytes() for buf in buffers)


def decode_relation(head: bytes, frames: Sequence[bytes]) -> Relation:
    """Rebuild a relation from :func:`encode_relation` output."""
    schema, pools, views = pickle.loads(
        head, buffers=[pickle.PickleBuffer(frame) for frame in frames]
    )
    dicts = []
    for state in pools:
        vd = ValueDictionary.__new__(ValueDictionary)
        vd.__setstate__(state)
        dicts.append(vd)
    columns = []
    for view in views:
        rebuilt = array("I")
        rebuilt.frombytes(memoryview(view))
        columns.append(rebuilt)
    relation = Relation.__new__(Relation)
    relation.schema = schema
    relation._dicts = tuple(dicts)
    relation._columns = columns
    relation._version = 0
    return relation


def pack(refs: Sequence[RelationRef]) -> Tuple[ShippedRelation, ...]:
    """Encode every distinct published relation in *refs* once."""
    seen = {}
    for ref in refs:
        if ref.token not in seen:
            head, frames = encode_relation(resolve(ref))
            seen[ref.token] = ShippedRelation(ref.token, head, frames)
    return tuple(seen.values())


def payload_nbytes(payload: Sequence[ShippedRelation]) -> int:
    """Total encoded bytes of a :func:`pack` payload."""
    return sum(shipped.nbytes for shipped in payload)


def install(payload: Sequence[ShippedRelation]) -> None:
    """Pool initializer: decode *payload* into this worker, once.

    Tokens already resolvable are skipped — under ``fork`` the worker
    inherits the parent's published registry copy-on-write, so the
    decode (and its memory) is avoided entirely.
    """
    fresh: Dict[str, Relation] = {}
    for shipped in payload:
        inherited = _PUBLISHED.get(shipped.token)
        if inherited is not None:
            continue
        fresh[shipped.token] = decode_relation(shipped.head, shipped.frames)
    _INSTALLED.clear()
    _INSTALLED.update(fresh)


def installed_count() -> int:
    """How many worker-installed relations this process holds (tests)."""
    return len(_INSTALLED)


def clear_installed() -> None:
    """Drop worker-installed relations (tests, memory pressure)."""
    _INSTALLED.clear()
