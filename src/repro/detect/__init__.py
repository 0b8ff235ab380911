"""Pluggable error detection (``docs/scenarios.md``).

The paper's repair model detects errors through FT-FD violations; real
pipelines meet error *sources* FDs never see — missing-value bursts,
format drift, numeric outliers. This package treats detection as a
signal layer (the HoloClean framing): detectors register under short
names (:data:`DETECTORS`, :func:`register_detector`) and each emits a
typed :class:`DetectorVerdict` cell set.

Detectors run as a stage of their own before repair, and they never
touch repair: the FD cost model decides every repair, byte-identically.
What they add is a visible suspect surface:
``RepairConfig(detectors=("fd", "null", "outlier"))``, CLI
``--detectors``, ``DetectionReport.detector_verdicts``,
``detector_cells_flagged`` counters, and the scenario-matrix benchmark
(``benchmarks/_scenario_matrix.py``) that scores every detector on
every error profile.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Iterable, List, Optional, Union

from repro.dataset.relation import Relation
from repro.detect.base import (
    Detector,
    DetectorContext,
    DetectorVerdict,
)
from repro.detect.builtin import (
    DEFAULT_NULL_TOKENS,
    FdViolationDetector,
    NullDetector,
    NumericOutlierDetector,
    RegexFormatDetector,
    format_signature,
)
from repro.detect.registry import (
    DETECTORS,
    DetectorRegistry,
    register_detector,
)


def run_detectors(
    relation: Relation,
    detectors: Iterable[Union[str, Detector]],
    context: Optional[DetectorContext] = None,
    registry: Optional[DetectorRegistry] = None,
) -> List[DetectorVerdict]:
    """Run each detector (name or instance) on *relation*, in order.

    Names resolve against *registry* (the default registry when
    omitted). Each verdict is stamped with its wall seconds.
    """
    registry = registry if registry is not None else DETECTORS
    verdicts: List[DetectorVerdict] = []
    for spec in detectors:
        detector = registry.create(spec)
        start = time.perf_counter()
        verdict = detector.flag(relation, context)
        seconds = time.perf_counter() - start
        if verdict.seconds == 0.0:
            verdict = replace(verdict, seconds=seconds)
        verdicts.append(verdict)
    return verdicts


__all__ = [
    "DEFAULT_NULL_TOKENS",
    "DETECTORS",
    "Detector",
    "DetectorContext",
    "DetectorRegistry",
    "DetectorVerdict",
    "FdViolationDetector",
    "NullDetector",
    "NumericOutlierDetector",
    "RegexFormatDetector",
    "format_signature",
    "register_detector",
    "run_detectors",
]
