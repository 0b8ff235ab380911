"""The ``repro.api`` facade, and the removed spellings failing loudly."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api as api


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
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        tag = re.search(
            r'^version = "([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        assert tag is not None
        assert repro.__version__ == tag.group(1)

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
    """Spellings removed in 2.1 and 2.2 raise instead of warning."""

    @pytest.mark.parametrize(
        "build,argument",
        [
            (lambda fds: repro.RepairConfig(kernel="myers"), "kernel"),
            (lambda fds: repro.Repairer(fds, kernel="myers"), "kernel"),
            (lambda fds: repro.Repairer(fds, rng=3), "rng"),
            (lambda fds: repro.Repairer(fds, "exact-m"), "positional"),
            (lambda fds: repro.RepairConfig(max_subtasks=4), "max_subtasks"),
            (
                lambda fds: repro.RepairConfig(bound_exchange=False),
                "bound_exchange",
            ),
        ],
        ids=["config-kernel", "repairer-kernel", "repairer-rng",
             "repairer-positional", "config-max-subtasks",
             "config-bound-exchange"],
    )
    def test_removed_arguments_raise(self, build, argument):
        fds = [repro.FD.parse("K -> V")]
        with pytest.raises(TypeError, match=argument):
            build(fds)

    def test_removed_relation_accessors(self):
        relation = repro.Relation(repro.Schema.of("A"), [("x",)])
        assert not hasattr(relation, "record")
        assert not hasattr(repro.Relation, "from_dicts")
        assert relation.as_record(0) == {"A": "x"}

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
