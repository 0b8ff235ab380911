"""The canonical repair configuration.

Every knob the :class:`~repro.core.engine.Repairer` facade understands
lives in one frozen :class:`RepairConfig` value object. Configs are
immutable, comparable, and cheap to derive from (:meth:`merged`), which
is what makes them safe to ship to worker processes and to reuse across
many repairs of a serving fleet.

The execution-layer knobs are new in this layer:

* ``n_jobs`` — worker processes for the component-sharded executor
  (``1`` = deterministic in-process serial execution, ``-1`` = one per
  CPU). Output is byte-identical for every value; see
  ``docs/parallelism.md``.
* ``component_budget`` — pattern-count budget above which an exact
  algorithm is pre-emptively degraded to its greedy counterpart on that
  component (formalizing the anytime fallback per component instead of
  discovering the blow-up mid-search).
* ``seed`` — RNG seed for threshold sampling.
* ``split_threshold`` — with ``n_jobs > 1``, split the Exact-S winner
  search of a dominant component with at least this many patterns into
  subtree tasks shared across the pool (``None``, the default: never).
  The output is identical either way.
* ``trace`` — record the run through the observability layer
  (:mod:`repro.obs`): hierarchical phase spans, unified counters, and a
  structured JSON run report via ``Repairer.report()`` / the CLI
  ``--trace`` / ``--report out.json``. Off by default; the
  instrumentation points stay no-ops (see ``docs/observability.md``).

``join_strategy`` defaults to ``"vectorized"`` — the numpy-batched
blocker union at distinct-dictionary-id granularity (see
``docs/detection.md``), which falls back to a length-filtered pair scan
when no sound blocker exists. ``"naive"`` is the unfiltered reference
scan; both return exactly the same violations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.core.distances import DistanceFn, Weights
from repro.index.simjoin import DEFAULT_JOIN, STRATEGIES

#: per-FD tau mapping, one scalar for every FD, or None (derive from data)
ThresholdsLike = Union[None, float, Mapping[Any, float]]

_UNSET = object()


@dataclass(frozen=True)
class RepairConfig:
    """Immutable configuration of one repair engine.

    Parameters mirror the documented :class:`~repro.core.engine.Repairer`
    semantics; see that class and ``docs/api.md`` for the meaning of
    each field.
    """

    algorithm: str = "greedy-m"
    weights: Weights = field(default_factory=Weights)
    thresholds: ThresholdsLike = None
    use_tree: bool = True
    join_strategy: str = DEFAULT_JOIN
    fallback: str = "error"
    max_nodes: Optional[int] = 200_000
    max_combinations: int = 1_000_000
    distance_overrides: Optional[Dict[str, DistanceFn]] = None
    threshold_ceiling: object = "median"
    n_jobs: int = 1
    component_budget: Optional[int] = None
    seed: object = None
    trace: bool = False
    split_threshold: Optional[int] = None
    #: error detectors to run ahead of repair/detection
    #: (``docs/scenarios.md``): names from the detector registry, e.g.
    #: ``("fd", "null", "outlier")``. ``"fd"`` denotes the built-in
    #: FT-FD path (always active); the others emit advisory verdicts
    #: merged into the violation graph — the repair itself is
    #: byte-identical with or without them. ``None`` = FD-only.
    detectors: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        # Deferred import: the engine imports this module at load time.
        from repro.core.engine import ALGORITHMS

        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of "
                f"{sorted(ALGORITHMS)}"
            )
        if self.fallback not in ("error", "greedy"):
            raise ValueError("fallback must be 'error' or 'greedy'")
        if self.join_strategy not in STRATEGIES:
            raise ValueError(
                f"unknown join_strategy {self.join_strategy!r}; expected "
                f"one of {list(STRATEGIES)}"
            )
        if self.n_jobs == 0 or not isinstance(self.n_jobs, int):
            raise ValueError(
                "n_jobs must be a positive worker count or -1 (one per CPU)"
            )
        if self.n_jobs < -1:
            raise ValueError("n_jobs must be >= 1, or exactly -1")
        if self.component_budget is not None and self.component_budget < 1:
            raise ValueError("component_budget must be a positive node count")
        if self.split_threshold is not None and self.split_threshold < 2:
            raise ValueError(
                "split_threshold must be >= 2 vertices (or None to disable "
                "component splitting)"
            )
        if self.detectors is not None:
            # Registry import is deferred (repro.detect registers its
            # built-ins on package import); tuple coercion keeps the
            # frozen config hashable when callers pass a list.
            from repro.detect import DETECTORS

            names = tuple(self.detectors)
            unknown = [n for n in names if n not in DETECTORS]
            if unknown:
                raise ValueError(
                    f"unknown detector(s) {unknown}; registered: "
                    f"{DETECTORS.names()}"
                )
            object.__setattr__(self, "detectors", names)

    # ------------------------------------------------------------------
    def merged(self, **overrides: Any) -> "RepairConfig":
        """A copy with the given fields replaced.

        Unknown field names raise; ``_UNSET`` sentinels (used by the
        keyword-override path of the Repairer constructor) are skipped,
        so ``cfg.merged(n_jobs=4, algorithm=_UNSET)`` only touches
        ``n_jobs``.
        """
        changes = {k: v for k, v in overrides.items() if v is not _UNSET}
        unknown = [k for k in changes if k not in _field_names()]
        if unknown:
            raise TypeError(f"unknown RepairConfig field(s): {unknown}")
        if not changes:
            return self
        return dataclasses.replace(self, **changes)

    def effective_jobs(self, n_units: Optional[int] = None) -> int:
        """The worker count this config resolves to.

        ``-1`` means one worker per CPU; the result is additionally
        capped at *n_units* when given (spawning more workers than work
        units only costs fork time).
        """
        import os

        jobs = self.n_jobs
        if jobs == -1:
            jobs = os.cpu_count() or 1
        if n_units is not None:
            jobs = max(1, min(jobs, n_units))
        return jobs

    def to_dict(self) -> Dict[str, Any]:
        """Field name -> value, in declaration order (for reporting)."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def _field_names() -> frozenset:
    return frozenset(f.name for f in dataclasses.fields(RepairConfig))
