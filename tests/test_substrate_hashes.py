"""Every algorithm's repair hash on the standard HOSP smoke slice.

The 800-tuple noisy HOSP slice (``generate_hosp(800, rng=7)`` plus
``inject_noise(..., rng=11)``) has pinned output hashes for all five
algorithms, first recorded on the pre-1.2 row-major substrate. Each
algorithm must reproduce its hash and edit count under the library's
similarity join (serial and at ``n_jobs=2``) and, serially, with the
definition-level scan oracle (:class:`tests.oracles.ScanJoin`)
substituted for ``SimilarityJoin.join`` (the ``-naive`` cases): the
encoding, the join and the worker pool change nothing about what gets
repaired — every edit, in order, at identical cost.

The exact algorithms run with ``fallback="greedy"``: their searches
exhaust ``max_nodes`` on this slice's large components and degrade, as
the CLI default does.

Slow (15 full 800-tuple repairs; exact-s takes most of it), so marked
``slow`` like the other integration workloads.
"""

import warnings

import pytest

from repro.core.distances import Weights
from repro.core.engine import Repairer
from repro.generator.hosp import HOSP_FDS, generate_hosp, hosp_thresholds
from repro.generator.noise import NoiseConfig, inject_noise
from repro.index.simjoin import SimilarityJoin
from repro.obs import repair_output_hash
from tests.oracles import ScanJoin

#: algorithm -> (expected output hash, expected edit count)
EXPECTED = {
    "appro-m": ("ed47302ef255617b", 442),
    "exact-m": ("ed47302ef255617b", 442),
    "exact-s": ("3a25e7b8fe51b497", 452),
    "greedy-m": ("ed47302ef255617b", 442),
    "greedy-s": ("3a25e7b8fe51b497", 452),
}

#: run settings; the default one (the library join, serial) has no id
#: suffix. ``-naive`` runs serially through the scan oracle: a
#: monkeypatch reaches no worker process.
SETTINGS = {
    "": {},
    "-naive": {},
    "-n_jobs2": {"n_jobs": 2},
}


@pytest.fixture(scope="module")
def hosp_slice():
    clean = generate_hosp(800, rng=7)
    relation, _errors = inject_noise(clean, HOSP_FDS, NoiseConfig(), rng=11)
    return relation


@pytest.mark.slow
@pytest.mark.parametrize(
    "algorithm,setting",
    [
        pytest.param(algorithm, setting, id=algorithm + setting)
        for algorithm in sorted(EXPECTED)
        for setting in SETTINGS
    ],
)
def test_smoke_hash_matches_row_major_baseline(
    hosp_slice, monkeypatch, algorithm, setting
):
    if setting == "-naive":
        monkeypatch.setattr(SimilarityJoin, "join", ScanJoin.join)
    expected_hash, expected_edits = EXPECTED[algorithm]
    weights = Weights(0.5, 0.5)
    extra = {"fallback": "greedy"} if algorithm.startswith("exact") else {}
    repairer = Repairer(
        HOSP_FDS,
        algorithm=algorithm,
        weights=weights,
        thresholds=hosp_thresholds(weights=weights),
        **SETTINGS[setting],
        **extra,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the exact searches degrade here
        result = repairer.repair(hosp_slice)
    assert len(result.edits) == expected_edits
    assert repair_output_hash(result.edits, result.cost) == expected_hash
