"""The stable public API of the repro library, in one import.

``repro.api`` is the supported surface for downstream code; internals
reached by deep imports (``repro.core.single.mis`` etc.) carry no
stability guarantee. Removals are listed in the migration notes of
``docs/api.md``.

Typical use::

    from repro.api import FD, Repairer, RepairConfig, read_csv

    relation = read_csv("hospital.csv", numeric=["Score"])
    config = RepairConfig(algorithm="exact-m", n_jobs=-1)
    result = Repairer([FD.parse("ZIP -> City")], config=config).repair(relation)

Configuration namespace
-----------------------
Every behavioural knob lives on :class:`~repro.exec.config.RepairConfig`
and maps 1:1 onto a CLI flag:

====================  =======================  =================================
config field          CLI flag                 meaning
====================  =======================  =================================
``algorithm``         ``--algorithm``          repair algorithm (:data:`ALGORITHMS`)
``thresholds``        ``--tau``                similarity threshold(s)
``weights``           ``--lhs-weight``         projection-distance weights
``join_strategy``     ``--join-strategy``      detection strategy
``n_jobs``            ``--n-jobs``             executor worker processes
``component_budget``  ``--component-budget``   exact-search degradation budget
``trace``             ``--trace``              observability recording
====================  =======================  =================================

The two join strategies — the numpy-batched ``"vectorized"`` default
and the unfiltered ``"naive"`` reference scan — emit identical
violations; they differ only in how many candidate pairs they examine.

Serving
-------
:class:`RepairService` (with :class:`ServeConfig`, the fingerprint-keyed
:class:`ModelCache`, and the indexed :class:`IndexedRepairer` hot path)
is the embeddable repair-as-a-service core behind ``repro serve`` —
fit once, repair records over an async micro-batched pipeline with the
same outputs as :meth:`IncrementalRepairer.repair_record`. See
``docs/serving.md``.

Dataset substrate
-----------------
:class:`Relation` is columnar and dictionary-encoded (one
:class:`ValueDictionary` per attribute, rows as interned value ids —
``docs/dataset.md``). The typed accessors (``column``, ``value_id``,
``decode``, ``dictionary``) are part of this API, with ``as_record`` /
``from_records`` for attribute-name-keyed dicts.
"""

from __future__ import annotations

from repro.core import (
    ALGORITHMS,
    CFD,
    FD,
    CFDRepairer,
    CellEdit,
    DistanceModel,
    Repairer,
    RepairResult,
    Weights,
    parse_fds,
    suggest_threshold,
    suggest_thresholds,
)
from repro.core.incremental import IncrementalRepairer
from repro.dataset import (
    Attribute,
    Relation,
    Schema,
    ValueDictionary,
    read_csv,
    write_csv,
)
from repro.detect import (
    DETECTORS,
    DetectorContext,
    DetectorRegistry,
    DetectorVerdict,
    register_detector,
    run_detectors,
)
from repro.exec import (
    DegradedRepairWarning,
    ExecutionStats,
    RepairConfig,
    RepairExecutor,
    RelationRef,
)
from repro.obs import RunReport
from repro.serve import (
    IndexedRepairer,
    ModelCache,
    RepairService,
    ServeConfig,
    ServiceOverloadedError,
)

__all__ = [
    # constraints and repair
    "FD",
    "CFD",
    "parse_fds",
    "Repairer",
    "CFDRepairer",
    "IncrementalRepairer",
    "RepairResult",
    "CellEdit",
    "ALGORITHMS",
    # configuration
    "RepairConfig",
    "Weights",
    "suggest_threshold",
    "suggest_thresholds",
    # execution
    "RepairExecutor",
    "ExecutionStats",
    "DegradedRepairWarning",
    "RelationRef",
    # dataset substrate
    "Relation",
    "Schema",
    "Attribute",
    "ValueDictionary",
    "read_csv",
    "write_csv",
    # distances and observability
    "DistanceModel",
    "RunReport",
    # error detectors (docs/scenarios.md)
    "DETECTORS",
    "DetectorRegistry",
    "DetectorContext",
    "DetectorVerdict",
    "register_detector",
    "run_detectors",
    # serving (repair-as-a-service, docs/serving.md)
    "RepairService",
    "ServeConfig",
    "IndexedRepairer",
    "ModelCache",
    "ServiceOverloadedError",
]
