"""The ``repro.api`` facade and the shared deprecation policy."""

import subprocess
import sys
import warnings

import pytest

import repro
import repro.api as api
from repro._compat import CURRENT_RELEASE, NEXT_RELEASE, deprecated


class TestFacade:
    def test_every_export_resolves(self):
        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert missing == []

    def test_core_surface_is_present(self):
        for name in (
            "FD",
            "Repairer",
            "RepairConfig",
            "RepairResult",
            "CellEdit",
            "Relation",
            "Schema",
            "ValueDictionary",
            "RelationRef",
            "RunReport",
            "ALGORITHMS",
            "read_csv",
            "write_csv",
        ):
            assert name in api.__all__, name

    def test_facade_matches_package_objects(self):
        # the facade re-exports, it never wraps
        assert api.Repairer is repro.Repairer
        assert api.Relation is repro.Relation
        assert api.RepairConfig is repro.RepairConfig

    def test_version_matches_release_tag(self):
        assert repro.__version__.startswith(CURRENT_RELEASE)

    def test_end_to_end_through_the_facade(self):
        fd = api.FD.parse("K -> V")
        relation = api.Relation(
            api.Schema.of("K", "V"),
            [("a", "1"), ("a", "2"), ("b", "9")],
        )
        repairer = api.Repairer(
            [fd],
            config=api.RepairConfig(algorithm="greedy-s", thresholds=0.3),
        )
        result = repairer.repair(relation)
        assert isinstance(result, api.RepairResult)

    def test_importable_standalone(self):
        # the facade must not rely on import side effects of test setup
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.api"], capture_output=True
        )
        assert proc.returncode == 0, proc.stderr.decode()


class TestDeprecationPolicy:
    def test_message_format(self):
        with pytest.warns(
            DeprecationWarning,
            match=r"use new\(\) \[deprecated since 2\.0, "
            r"scheduled for removal in 2\.1\]",
        ):
            deprecated("use new()", stacklevel=2)

    def test_release_override(self):
        with pytest.warns(DeprecationWarning, match=r"since 1\.1"):
            deprecated("old thing", since="1.1", stacklevel=2)

    def test_releases_are_consecutive(self):
        major, minor = CURRENT_RELEASE.split(".")
        assert NEXT_RELEASE == f"{major}.{int(minor) + 1}"

    def test_repairer_legacy_spellings_route_through_compat(self):
        fds = [repro.FD.parse("K -> V")]
        with pytest.warns(DeprecationWarning, match=r"deprecated since 1\.1"):
            repro.Repairer(fds, rng=3)

    def test_config_simjoin_alias_removed(self):
        with pytest.raises(TypeError, match="simjoin_strategy"):
            repro.RepairConfig().merged(simjoin_strategy="naive")


class TestCliConfigNamespace:
    def test_join_strategy_flag_and_alias(self):
        from repro.cli import build_parser

        parser = build_parser()
        blessed = parser.parse_args(
            ["in.csv", "--fd", "A -> B", "--join-strategy", "naive"]
        )
        assert blessed.join_strategy == "naive"
        # the pre-1.2 --simjoin-strategy alias is gone in 2.0
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["in.csv", "--fd", "A -> B", "--simjoin-strategy", "naive"]
            )

    def test_kernel_flag_maps_to_config_field(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["in.csv", "--fd", "A -> B", "--kernel", "banded"]
        )
        config = repro.RepairConfig(kernel=args.kernel)
        assert config.kernel == "banded"

    def test_no_global_kernel_mutation(self):
        # the CLI used to call set_default_kernel(); the kernel must now
        # travel through RepairConfig only
        import repro.cli as cli

        assert not hasattr(cli, "set_default_kernel")


def test_deprecated_accessors_survive_one_release():
    relation = repro.Relation(repro.Schema.of("A"), [("x",)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with pytest.raises(DeprecationWarning):
            relation.record(0)
        with pytest.raises(DeprecationWarning):
            repro.Relation.from_dicts(repro.Schema.of("A"), [{"A": "x"}])
