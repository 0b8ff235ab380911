"""Fingerprint-keyed LRU cache of fitted serving models.

Fitting an :class:`~repro.core.incremental.IncrementalRepairer` is the
expensive half of the serving story — violation graphs, independent
sets, target trees. Repeated tenants (the same reference instance and
FD set arriving again: a reconnecting client, a second process of the
same pipeline, a replayed job) should not pay it twice.

:class:`ModelCache` keys fitted models by the **dataset fingerprint**
of the reference relation (the sampled content hash
:func:`repro.obs.dataset_fingerprint` already computes for run reports)
combined with a hash of the FD set, thresholds, weights, and absorb
mode — everything that determines the fitted state. Values are
fitted :class:`~repro.core.incremental.IncrementalRepairer` instances
ready to serve. Eviction is least-recently-used at a fixed capacity.

Traffic is counted (``model_cache_hits`` / ``model_cache_misses`` /
``model_cache_evictions``) and surfaces through the service's
``repro.obs`` counter registry and the ``/stats`` endpoint.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from repro.core.constraints import FD
from repro.core.distances import Weights
from repro.core.incremental import IncrementalRepairer
from repro.dataset.relation import Relation
from repro.obs import dataset_fingerprint


def model_key(
    relation: Relation,
    fds: Sequence[FD],
    thresholds=None,
    weights: Weights = Weights(),
    absorb: bool = False,
) -> str:
    """The cache key of a fitted model: dataset fingerprint + FD-set hash.

    The fingerprint pins the reference instance (schema, row count,
    strided content sample); the second component hashes every fitting
    parameter — FD specs in order, thresholds spec, Eq. (2) weights,
    and absorb mode. Two requests with equal keys fit byte-identical
    models.
    """
    fingerprint = dataset_fingerprint(relation)["sha256"]
    digest = hashlib.sha256()
    for fd in fds:
        digest.update(
            f"{','.join(fd.lhs)}->{','.join(fd.rhs)};{fd.name}\x1e".encode()
        )
    if isinstance(thresholds, dict):
        spec = sorted(
            (getattr(fd, "name", str(fd)), float(tau))
            for fd, tau in thresholds.items()
        )
    else:
        spec = thresholds
    digest.update(repr(spec).encode())
    digest.update(f"\x1f{weights.lhs}\x1f{weights.rhs}".encode())
    digest.update(b"\x1fabsorb" if absorb else b"\x1fstrict")
    return f"{fingerprint}:{digest.hexdigest()[:16]}"


class ModelCache:
    """LRU store of fitted :class:`IncrementalRepairer` models.

    >>> cache = ModelCache(capacity=2)
    >>> cache.counters()["model_cache_hits"]
    0
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, IncrementalRepairer]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[IncrementalRepairer]:
        """The cached model for *key*, refreshing recency; else ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, model: IncrementalRepairer) -> None:
        """Insert (or refresh) *model* under *key*, evicting past capacity."""
        self._entries[key] = model
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_fit(
        self,
        relation: Relation,
        fds: Sequence[FD],
        thresholds=None,
        weights: Weights = Weights(),
        absorb: bool = False,
    ) -> Tuple[str, IncrementalRepairer]:
        """The model for this (relation, FD set) — fitted at most once.

        A hit skips the entire fit; a miss fits, caches, and may evict
        the least-recently-used tenant.
        """
        key = model_key(relation, fds, thresholds, weights, absorb)
        cached = self.get(key)
        if cached is not None:
            return key, cached
        model = IncrementalRepairer(
            fds, weights=weights, thresholds=thresholds, absorb=absorb
        ).fit(relation)
        self.put(key, model)
        return key, model

    def counters(self) -> Dict[str, int]:
        """JSON-safe counter snapshot (obs / ``/stats`` plumbing)."""
        return {
            "model_cache_hits": self.hits,
            "model_cache_misses": self.misses,
            "model_cache_evictions": self.evictions,
            "model_cache_size": len(self._entries),
        }
