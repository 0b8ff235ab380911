"""Tests for the HOSP and Tax workload generators."""

import pytest

from repro.core.distances import DistanceModel, Weights
from repro.core.violation import is_consistent_all
from repro.generator.entities import single_cell_error_bound
from repro.generator.hosp import (
    HOSP_FDS,
    HOSP_GEOMETRY,
    HOSP_SCHEMA,
    generate_hosp,
    hosp_fds,
    hosp_thresholds,
)
from repro.generator.tax import (
    TAX_FDS,
    TAX_GEOMETRY,
    TAX_SCHEMA,
    generate_tax,
    tax_fds,
    tax_thresholds,
)
from tests.oracles import scan_ft_consistent


@pytest.fixture(scope="module")
def hosp():
    return generate_hosp(400, rng=9, n_facilities=12, n_measures=6)


@pytest.fixture(scope="module")
def tax():
    return generate_tax(400, rng=9, n_residences=12, n_employers=8, n_filings=5)


class TestShapes:
    def test_hosp_schema_has_19_attributes(self):
        assert len(HOSP_SCHEMA) == 19

    def test_nine_fds_each(self):
        assert len(HOSP_FDS) == 9
        assert len(TAX_FDS) == 9

    def test_fd_prefix_selector(self):
        assert len(hosp_fds(3)) == 3
        assert hosp_fds() == HOSP_FDS
        with pytest.raises(ValueError):
            hosp_fds(0)
        with pytest.raises(ValueError):
            tax_fds(10)

    def test_all_fd_attributes_in_schema(self):
        for fd in HOSP_FDS:
            fd.validate(HOSP_SCHEMA)
        for fd in TAX_FDS:
            fd.validate(TAX_SCHEMA)


class TestCleanInstances:
    def test_row_counts(self, hosp, tax):
        assert len(hosp) == 400
        assert len(tax) == 400

    def test_clean_hosp_satisfies_all_fds(self, hosp):
        assert is_consistent_all(hosp, HOSP_FDS)

    def test_clean_tax_satisfies_all_fds(self, tax):
        assert is_consistent_all(tax, TAX_FDS)

    def test_clean_hosp_is_ft_consistent_at_derived_taus(self, hosp):
        """The analytic thresholds never flag clean pattern pairs."""
        model = DistanceModel(hosp)
        assert scan_ft_consistent(hosp, HOSP_FDS, model, hosp_thresholds())

    def test_clean_tax_is_ft_consistent_at_derived_taus(self, tax):
        model = DistanceModel(tax)
        assert scan_ft_consistent(tax, TAX_FDS, model, tax_thresholds())

    def test_determinism(self):
        a = generate_hosp(100, rng=3, n_facilities=6, n_measures=4)
        b = generate_hosp(100, rng=3, n_facilities=6, n_measures=4)
        assert a == b

    def test_seed_changes_instance(self):
        a = generate_hosp(100, rng=3, n_facilities=6, n_measures=4)
        b = generate_hosp(100, rng=4, n_facilities=6, n_measures=4)
        assert a != b

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            generate_hosp(0)
        with pytest.raises(ValueError):
            generate_tax(-1)

    def test_default_entity_counts_scale(self):
        relation = generate_hosp(800, rng=1)
        providers = relation.value_counts(["ProviderNumber"])
        assert 15 <= len(providers) <= 25  # ~800/40


class TestThresholdGeometry:
    @pytest.mark.parametrize("fd", HOSP_FDS, ids=lambda fd: fd.name)
    def test_hosp_taus_above_error_bound(self, fd):
        tau = hosp_thresholds([fd])[fd]
        bound = single_cell_error_bound(fd, HOSP_GEOMETRY)
        # For string-only FDs the threshold clears the worst single-cell
        # error; numeric-RHS FDs (h9) cannot cover every numeric swap.
        if fd.name != "h9":
            assert tau > bound

    @pytest.mark.parametrize("fd", TAX_FDS, ids=lambda fd: fd.name)
    def test_tax_taus_positive(self, fd):
        assert tax_thresholds([fd])[fd] > 0

    def test_weights_change_thresholds(self):
        default = hosp_thresholds([HOSP_FDS[0]])[HOSP_FDS[0]]
        skewed = hosp_thresholds([HOSP_FDS[0]], Weights(0.2, 0.8))[HOSP_FDS[0]]
        assert default != skewed
