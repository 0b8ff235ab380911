"""Indexes and optimizations for FT-violation detection."""

from repro.index.blocking import AttributeBlocker, BlockPlan
from repro.index.simjoin import DEFAULT_JOIN, STRATEGIES, SimilarityJoin

__all__ = [
    "SimilarityJoin",
    "STRATEGIES",
    "DEFAULT_JOIN",
    "AttributeBlocker",
    "BlockPlan",
]
