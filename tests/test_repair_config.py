"""RepairConfig: validation, merging, and the Repairer constructor."""

from __future__ import annotations

import typing
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import FD
from repro.core.engine import ALGORITHMS, Repairer
from repro.exec import RepairConfig

FDS = [FD.parse("City -> State")]


class TestValidation:
    def test_defaults_are_valid(self):
        config = RepairConfig()
        assert config.algorithm == "greedy-m"
        assert config.n_jobs == 1

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_known_algorithm_accepted(self, algorithm):
        assert RepairConfig(algorithm=algorithm).algorithm == algorithm

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            RepairConfig(algorithm="magic")

    def test_default_join_strategy_is_vectorized(self):
        assert RepairConfig().join_strategy == "vectorized"

    def test_removed_join_strategy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="join_strategy") as exc:
            RepairConfig(join_strategy="indexed")
        # the message names the one accepted value and where the
        # reference scan went
        assert "'vectorized'" in str(exc.value)
        assert "test suite" in str(exc.value)
        with pytest.raises(ValueError, match="test suite"):
            RepairConfig(join_strategy="naive")

    def test_bad_fallback_rejected(self):
        with pytest.raises(ValueError, match="fallback"):
            RepairConfig(fallback="ignore")

    @pytest.mark.parametrize("n_jobs", [0, -2, 1.5])
    def test_bad_n_jobs_rejected(self, n_jobs):
        with pytest.raises(ValueError):
            RepairConfig(n_jobs=n_jobs)

    def test_bad_component_budget_rejected(self):
        with pytest.raises(ValueError, match="component_budget"):
            RepairConfig(component_budget=0)

    def test_type_hints_resolve(self):
        # every annotation must name an imported type (`detectors` once
        # named an unimported `Tuple`)
        hints = typing.get_type_hints(RepairConfig)
        assert hints["detectors"] == typing.Optional[typing.Tuple[str, ...]]

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RepairConfig().algorithm = "exact-m"


class TestMerged:
    def test_merged_returns_new_config(self):
        base = RepairConfig()
        derived = base.merged(n_jobs=4)
        assert derived.n_jobs == 4
        assert base.n_jobs == 1
        assert derived.algorithm == base.algorithm

    def test_merged_without_changes_is_identity(self):
        base = RepairConfig()
        assert base.merged() is base

    def test_merged_rejects_unknown_fields(self):
        with pytest.raises(TypeError, match="unknown RepairConfig field"):
            RepairConfig().merged(jobs=4)

    def test_merged_revalidates(self):
        with pytest.raises(ValueError):
            RepairConfig().merged(n_jobs=0)

    def test_to_dict_round_trips(self):
        config = RepairConfig(algorithm="exact-m", n_jobs=2, seed=7)
        assert RepairConfig(**config.to_dict()) == config


class TestEffectiveJobs:
    def test_serial_is_one(self):
        assert RepairConfig(n_jobs=1).effective_jobs(10) == 1

    def test_capped_at_units(self):
        assert RepairConfig(n_jobs=8).effective_jobs(3) == 3

    def test_minus_one_uses_cpus(self):
        import os

        assert RepairConfig(n_jobs=-1).effective_jobs() == (
            os.cpu_count() or 1
        )

    def test_zero_units_still_one_worker(self):
        assert RepairConfig(n_jobs=4).effective_jobs(0) == 1


class TestRepairerShim:
    """Keyword overrides map losslessly onto configs; positional
    arguments after ``fds`` and the removed ``rng=`` spelling raise."""

    config_strategy = st.fixed_dictionaries(
        {
            "algorithm": st.sampled_from(sorted(ALGORITHMS)),
            "use_tree": st.booleans(),
            "fallback": st.sampled_from(["error", "greedy"]),
            "max_nodes": st.integers(min_value=1, max_value=10**6),
            "max_combinations": st.integers(min_value=1, max_value=10**6),
            "thresholds": st.one_of(
                st.none(), st.floats(min_value=0.0, max_value=1.0)
            ),
            "seed": st.one_of(st.none(), st.integers(0, 2**16)),
        }
    )

    @given(params=config_strategy)
    @settings(max_examples=50, deadline=None)
    def test_keyword_overrides_round_trip(self, params):
        """Keyword overrides build the same config as a direct one."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # keywords must NOT warn
            repairer = Repairer(FDS, **params)
        assert repairer.config == RepairConfig(**params)

    def test_rng_and_seed_together_rejected(self):
        with pytest.raises(TypeError, match="rng"):
            Repairer(FDS, rng=1, seed=2)

    def test_positional_and_config_together_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            Repairer(FDS, "greedy-m", config=RepairConfig())

    def test_positional_and_keyword_duplicate_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            Repairer(FDS, "greedy-m", algorithm="exact-m")

    def test_too_many_positionals_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            Repairer(FDS, *([None] * 12))

    def test_empty_fds_rejected(self):
        with pytest.raises(ValueError, match="FD"):
            Repairer([])

    def test_config_plus_override(self):
        base = RepairConfig(algorithm="exact-m", n_jobs=2)
        repairer = Repairer(FDS, config=base, n_jobs=4)
        assert repairer.config.algorithm == "exact-m"
        assert repairer.config.n_jobs == 4
        assert base.n_jobs == 2

    def test_legacy_attribute_surface_preserved(self):
        repairer = Repairer(FDS, algorithm="exact-m", n_jobs=3, seed=5)
        assert repairer.algorithm == "exact-m"
        assert repairer.n_jobs == 3
        assert repairer.seed == 5
        assert repairer.fallback == "error"
        assert repairer.max_combinations == RepairConfig().max_combinations

    def test_reexported_from_package_root(self):
        import repro

        assert repro.RepairConfig is RepairConfig
