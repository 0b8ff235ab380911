"""Execution layer: configs, component-sharded parallel execution, stats.

The paper's decomposition theorems make repair embarrassingly parallel;
this package is where the library exploits that. See
``docs/parallelism.md`` for the determinism guarantee.
"""

from repro.exec.config import RepairConfig
from repro.exec.executor import (
    ComponentOutcome,
    ComponentTask,
    RepairExecutor,
    component_size,
    repair_component,
)
from repro.exec.planner import estimate_task, plan_schedule
from repro.exec.shipping import RelationRef, publish, resolve
from repro.exec.stats import DegradedRepairWarning, ExecutionStats

__all__ = [
    "RepairConfig",
    "RepairExecutor",
    "RelationRef",
    "publish",
    "resolve",
    "ExecutionStats",
    "DegradedRepairWarning",
    "ComponentTask",
    "ComponentOutcome",
    "component_size",
    "repair_component",
    "estimate_task",
    "plan_schedule",
]
