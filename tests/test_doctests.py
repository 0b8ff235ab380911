"""Run the documented doctest examples of the public modules."""

import doctest

import pytest

import repro.core.constraints
import repro.core.distances
import repro.core.incremental
import repro.core.multi.fdgraph
import repro.core.thresholds
import repro.dataset.relation
import repro.generator.vocab
import repro.serve.cache
import repro.serve.service
import repro.utils.unionfind

MODULES = [
    repro.core.constraints,
    repro.core.distances,
    repro.core.incremental,
    repro.core.multi.fdgraph,
    repro.core.thresholds,
    repro.dataset.relation,
    repro.generator.vocab,
    repro.serve.cache,
    repro.serve.service,
    repro.utils.unionfind,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s)"
    assert results.attempted > 0, "module lost its doctest examples"
