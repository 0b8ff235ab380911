"""The ``repro.api`` facade, and the removed spellings failing loudly."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api as api
from repro.index.simjoin import SimilarityJoin


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
    """Spellings removed in 2.1, 2.2, 2.4, 2.6 and 2.9 raise instead of
    warning."""

    @pytest.mark.parametrize(
        "build,argument,error",
        [
            (lambda fds: repro.RepairConfig(kernel="myers"), "kernel",
             TypeError),
            (lambda fds: repro.Repairer(fds, kernel="myers"), "kernel",
             TypeError),
            (lambda fds: repro.Repairer(fds, rng=3), "rng", TypeError),
            (lambda fds: repro.Repairer(fds, "exact-m"), "positional",
             TypeError),
            (lambda fds: repro.RepairConfig(max_subtasks=4), "max_subtasks",
             TypeError),
            (
                lambda fds: repro.RepairConfig(bound_exchange=False),
                "bound_exchange",
                TypeError,
            ),
            (
                lambda fds: repro.RepairConfig(split_threshold=8),
                "split_threshold",
                TypeError,
            ),
            (
                lambda fds: repro.Repairer(fds, split_threshold=8),
                "split_threshold",
                TypeError,
            ),
            # the field stays with one accepted value until the
            # benchmark stops passing it
            (
                lambda fds: repro.RepairConfig(join_strategy="naive"),
                "join_strategy",
                ValueError,
            ),
            (
                lambda fds: repro.Repairer(fds, join_strategy="naive"),
                "join_strategy",
                ValueError,
            ),
            (
                lambda fds: SimilarityJoin(fds[0], None, 0.5, strategy="naive"),
                "strategy",
                TypeError,
            ),
        ],
        ids=["config-kernel", "repairer-kernel", "repairer-rng",
             "repairer-positional", "config-max-subtasks",
             "config-bound-exchange", "config-split-threshold",
             "repairer-split-threshold", "config-join-strategy",
             "repairer-join-strategy", "simjoin-strategy"],
    )
    def test_removed_arguments_raise(self, build, argument, error):
        fds = [repro.FD.parse("K -> V")]
        with pytest.raises(error, match=argument):
            build(fds)

    def test_removed_join_names(self):
        import repro.core
        import repro.core.violation
        import repro.index
        from repro.index import simjoin

        for name in ("STRATEGIES", "DEFAULT_JOIN"):
            assert not hasattr(simjoin, name), name
            assert not hasattr(repro.index, name), name
        for name in ("ft_violation_pairs", "iter_tuple_violations",
                     "is_ft_consistent", "is_ft_consistent_all",
                     "projection_distance_within"):
            assert not hasattr(repro.core, name), name
            assert not hasattr(repro.core.violation, name), name
        assert not hasattr(repro.Repairer, "join_strategy")

    def test_removed_relation_accessors(self):
        relation = repro.Relation(repro.Schema.of("A"), [("x",)])
        assert not hasattr(relation, "record")
        assert not hasattr(repro.Relation, "from_dicts")
        assert relation.as_record(0) == {"A": "x"}

    def test_detector_flag_map_removed(self):
        import dataclasses

        import repro.detect
        import repro.detect.base
        from repro.core.detection import DetectionReport
        from repro.core.graph import ViolationGraph
        from repro.exec.executor import ComponentTask, RepairExecutor

        for name in ("FlagMap", "merge_verdicts", "pack_flags",
                     "unpack_flags", "install_flags", "installed_flags"):
            assert not hasattr(repro.detect, name), name
            assert not hasattr(repro.detect.base, name), name
        assert not hasattr(ViolationGraph, "merge_verdicts")
        assert not hasattr(DetectionReport, "flagged_cells")
        assert "flags" not in {f.name for f in dataclasses.fields(ComponentTask)}
        with pytest.raises(TypeError, match="verdicts"):
            RepairExecutor().repair(
                repro.Relation(repro.Schema.of("K", "V")), [], {}, verdicts=[]
            )

    def test_config_simjoin_alias_removed(self):
        with pytest.raises(TypeError, match="simjoin_strategy"):
            repro.RepairConfig().merged(simjoin_strategy="naive")


class TestCliConfigNamespace:
    def test_join_strategy_flag_and_alias(self):
        from repro.cli import build_parser

        parser = build_parser()
        # the flag left with the naive scan in 2.9; the pre-1.2
        # --simjoin-strategy alias in 2.0
        for flag in ("--join-strategy", "--simjoin-strategy"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["in.csv", "--fd", "A -> B", flag, "naive"])
            assert exc.value.code == 2
