"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.dataset.csvio import read_csv, write_csv
from repro.dataset.relation import Relation, Schema


@pytest.fixture
def csv_path(tmp_path):
    schema = Schema.of("sku", "product", "warehouse", "city")
    rows = (
        [("sk-1001", "espresso-one", "WH-A", "Lyon")] * 4
        + [("sk-1001", "espresso-oen", "WH-A", "Lyon")]  # typo
        + [("sk-2002", "grinder-two", "WH-B", "Nantes")] * 4
    )
    relation = Relation(schema, rows)
    path = tmp_path / "catalog.csv"
    write_csv(relation, path)
    return path


class TestParser:
    def test_requires_fd(self, csv_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args([str(csv_path)])

    def test_bad_fd_spec_exits(self, csv_path, capsys):
        with pytest.raises(SystemExit):
            main([str(csv_path), "--fd", "no arrow here"])

    def test_bad_weight_exits(self, csv_path):
        with pytest.raises(SystemExit):
            main([str(csv_path), "--fd", "sku -> product", "--lhs-weight", "2"])

    def test_unknown_algorithm_exits(self, csv_path):
        with pytest.raises(SystemExit):
            main([str(csv_path), "--fd", "sku -> product",
                  "--algorithm", "magic"])

    def test_removed_kernel_flag_exits(self, csv_path):
        # Myers is the only edit distance; --kernel is gone in 2.1
        with pytest.raises(SystemExit) as exc:
            main([str(csv_path), "--fd", "sku -> product", "--kernel", "myers"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-subtasks", "4"],
            ["--no-bound-exchange"],
            ["--split-threshold", "8"],
        ],
    )
    def test_removed_scheduler_flags_exit(self, csv_path, flags):
        # the split knobs left in 2.2; the split itself in 2.6
        with pytest.raises(SystemExit) as exc:
            main([str(csv_path), "--fd", "sku -> product", *flags])
        assert exc.value.code == 2


class TestRun:
    def test_repairs_and_writes_default_output(self, csv_path, capsys):
        code = main([str(csv_path), "--fd", "sku -> product", "--tau", "0.3"])
        assert code == 0
        output = csv_path.with_suffix(".repaired.csv")
        assert output.exists()
        repaired = read_csv(output)
        assert repaired.value(4, "product") == "espresso-one"
        assert "1 cell edit" in capsys.readouterr().out

    def test_explicit_output_path(self, csv_path, tmp_path):
        out = tmp_path / "clean.csv"
        code = main(
            [str(csv_path), "--fd", "sku -> product", "--tau", "0.3",
             "-o", str(out)]
        )
        assert code == 0
        assert out.exists()

    def test_dry_run_writes_nothing(self, csv_path, capsys):
        code = main(
            [str(csv_path), "--fd", "sku -> product", "--tau", "0.3",
             "--dry-run"]
        )
        assert code == 0
        assert not csv_path.with_suffix(".repaired.csv").exists()
        assert "dry run" in capsys.readouterr().out

    def test_report_lists_edits(self, csv_path, capsys):
        main([str(csv_path), "--fd", "sku -> product", "--tau", "0.3",
              "--report", "--dry-run"])
        out = capsys.readouterr().out
        assert "espresso-oen" in out and "espresso-one" in out

    def test_derived_thresholds_printed(self, csv_path, capsys):
        main([str(csv_path), "--fd", "sku -> product", "--dry-run"])
        out = capsys.readouterr().out
        assert "tau =" in out

    def test_multiple_fds(self, csv_path, capsys):
        code = main(
            [str(csv_path), "--fd", "sku -> product",
             "--fd", "warehouse -> city", "--tau", "0.3", "--dry-run"]
        )
        assert code == 0
        assert capsys.readouterr().out.count("tau =") == 2

    def test_missing_input_reports_error(self, tmp_path, capsys):
        code = main(
            [str(tmp_path / "nope.csv"), "--fd", "a -> b", "--dry-run"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_column_reports_error(self, csv_path, capsys):
        code = main([str(csv_path), "--fd", "sku -> nothere", "--dry-run"])
        assert code == 2
        assert "nothere" in capsys.readouterr().err

    def test_numeric_columns_flag(self, tmp_path):
        schema = Schema.of("code", "score")
        relation = Relation(
            schema, [("aaa-111", "10"), ("aaa-111", "10"), ("aaa-111", "12")]
        )
        path = tmp_path / "scores.csv"
        write_csv(relation, path)
        code = main(
            [str(path), "--fd", "code -> score", "--numeric", "score",
             "--tau", "0.3", "--dry-run"]
        )
        assert code == 0

    def test_algorithm_selection(self, csv_path):
        code = main(
            [str(csv_path), "--fd", "sku -> product", "--tau", "0.3",
             "--algorithm", "exact-s", "--dry-run"]
        )
        assert code == 0

    @pytest.mark.parametrize("strategy", ["naive", "vectorized"])
    def test_simjoin_strategy_flag(self, csv_path, capsys, strategy):
        code = main(
            [str(csv_path), "--fd", "sku -> product", "--tau", "0.3",
             "--join-strategy", strategy, "--report", "--dry-run"]
        )
        assert code == 0
        # every strategy detects the same typo and proposes the same fix
        out = capsys.readouterr().out
        assert "espresso-oen" in out and "espresso-one" in out

    def test_unknown_simjoin_strategy_exits(self, csv_path):
        # the removed strategies and the removed flag alias are usage errors
        for flag, strategy in (("--join-strategy", "indexed"),
                               ("--join-strategy", "hash-blocking"),
                               ("--simjoin-strategy", "naive")):
            with pytest.raises(SystemExit) as exc:
                main([str(csv_path), "--fd", "sku -> product", flag, strategy])
            assert exc.value.code == 2

    def test_stats_prints_detection_counters(self, csv_path, capsys):
        code = main(
            [str(csv_path), "--fd", "sku -> product", "--tau", "0.3",
             "--stats", "--dry-run"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "detection (vectorized):" in out
        assert "pairs_examined" in out


class TestTrace:
    def test_report_path_writes_run_report_json(self, csv_path, tmp_path):
        import json

        out = tmp_path / "run_report.json"
        code = main(
            [str(csv_path), "--fd", "sku -> product", "--tau", "0.3",
             "--trace", "--report", str(out), "--dry-run"]
        )
        assert code == 0
        report = json.loads(out.read_text())
        names = set()
        stack = [report["spans"]]
        while stack:
            node = stack.pop()
            names.add(node["name"])
            stack.extend(node.get("children", ()))
        assert {"run", "execute", "component", "graph", "detect"} <= names
        assert report["counters"]
        assert report["result"]["output_hash"]
        assert report["dataset"]["rows"] == 9

    def test_report_path_implies_trace(self, csv_path, tmp_path):
        out = tmp_path / "run_report.json"
        code = main(
            [str(csv_path), "--fd", "sku -> product", "--tau", "0.3",
             "--report", str(out), "--dry-run"]
        )
        assert code == 0
        assert out.exists()

    def test_bare_report_still_lists_edits(self, csv_path, capsys):
        # the legacy spelling: --report with no PATH prints the edit list
        main([str(csv_path), "--fd", "sku -> product", "--tau", "0.3",
              "--report", "--dry-run"])
        out = capsys.readouterr().out
        assert "espresso-oen" in out and "espresso-one" in out

    def test_trace_prints_phase_table(self, csv_path, capsys):
        code = main(
            [str(csv_path), "--fd", "sku -> product", "--tau", "0.3",
             "--trace", "--dry-run"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phase" in out and "detect" in out

    def test_edits_flag_lists_edits(self, csv_path, capsys):
        main([str(csv_path), "--fd", "sku -> product", "--tau", "0.3",
              "--edits", "--dry-run"])
        out = capsys.readouterr().out
        assert "espresso-oen" in out and "espresso-one" in out
