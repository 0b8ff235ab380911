"""Indexes and optimizations for FT-violation detection."""

from repro.index.blocking import AttributeBlocker, BlockPlan
from repro.index.simjoin import SimilarityJoin

__all__ = [
    "SimilarityJoin",
    "AttributeBlocker",
    "BlockPlan",
]
