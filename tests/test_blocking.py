"""Unit tests for the blocker union the vectorized join runs."""

from repro.core.constraints import FD
from repro.core.distances import DistanceModel, Weights, levenshtein
from repro.core.violation import ft_violation_pairs, group_patterns
from repro.dataset.relation import Relation, Schema
from repro.index.blocking import _BUDGET_EPS, vectorized_qgram_pairs
from repro.index.registry import _StringIndex
from repro.index.simjoin import SimilarityJoin


def _setup(rows, columns=("K", "V"), numeric=(), weights=None):
    schema = Schema.of(*columns, numeric=numeric)
    relation = Relation(schema, rows)
    fd = FD.parse(f"{columns[0]} -> {columns[1]}")
    model = DistanceModel(relation, weights=weights or Weights())
    patterns = group_patterns(relation, fd)
    return relation, fd, model, patterns


def _violating_index_pairs(patterns, fd, model, tau):
    """Reference: pattern-index pairs within tau, from the naive join."""
    by_values = {p.values: i for i, p in enumerate(patterns)}
    return {
        (by_values[v.left.values], by_values[v.right.values])
        for v in ft_violation_pairs(patterns, fd, model, tau)
    }


def _plan(fd, model, tau, patterns):
    """Run the vectorized join; return the plan it chose and the join."""
    join = SimilarityJoin(fd, model, tau, strategy="vectorized")
    join.join(patterns)
    return join.plan, join


def _qgram_pairs(values, ratio, q=2):
    """``(i, j) -> edit budget`` for the pairs the q-gram blocker keeps."""
    _, _, packed, sizes, lengths = _StringIndex(values, q).gram_arrays()
    u, v, budgets, _ = vectorized_qgram_pairs(packed, sizes, lengths, ratio, q)
    return dict(zip(zip(u.tolist(), v.tolist()), budgets.tolist()))


class TestPlanSelection:
    def test_tiny_tau_yields_exact_partitions(self):
        rows = [(f"key-{i:03d}", f"val-{i:03d}") for i in range(40)]
        _, fd, model, patterns = _setup(rows)
        # tau below one normalized edit on every attribute: any
        # difference exceeds it, so exact partitioning is sound
        plan, _ = _plan(fd, model, 0.01, patterns)
        assert plan.kind == "block"
        assert {b.kind for b in plan.blockers} == {"exact"}

    def test_numeric_attribute_gets_band_blocker(self):
        rows = [(f"key-{i:03d}", float(i)) for i in range(40)]
        _, fd, model, patterns = _setup(rows, numeric=("V",))
        plan, _ = _plan(fd, model, 0.2, patterns)
        assert plan.kind == "block"
        assert any(b.kind == "band" for b in plan.blockers)

    def test_string_attribute_gets_qgram_blocker(self):
        rows = [(f"alpha-key-{i:04d}", f"v{i % 3}") for i in range(60)]
        _, fd, model, patterns = _setup(rows)
        # ~0.5 weight, 14-char keys: tau 0.1 allows ~2 edits on K, so an
        # exact partition is unsound there and a q-gram blocker must run
        plan, _ = _plan(fd, model, 0.1, patterns)
        assert plan.kind == "block"
        kinds = {b.kind for b in plan.blockers}
        assert "qgram" in kinds or kinds == {"exact"}

    def test_scan_fallback_when_tau_huge(self):
        rows = [(f"k{i}", f"v{i}") for i in range(10)]
        _, fd, model, patterns = _setup(rows)
        # tau near the weight sum: every blocker vacuous -> scan
        plan, _ = _plan(fd, model, 0.99, patterns)
        assert plan.kind == "scan"
        assert plan.estimate == len(patterns) * (len(patterns) - 1) // 2

    def test_scan_for_degenerate_inputs(self):
        rows = [("only", "one")]
        _, fd, model, patterns = _setup(rows)
        plan, _ = _plan(fd, model, 0.3, patterns)
        assert plan.kind == "scan"

    def test_weight_zero_attribute_never_blocks(self):
        rows = [(f"key-{i:03d}", "same") for i in range(20)]
        _, fd, model, patterns = _setup(rows, weights=Weights(0.0, 1.0))
        plan, _ = _plan(fd, model, 0.1, patterns)
        # only V carries weight, and V is constant: intra-partition only
        for blocker in plan.blockers:
            assert blocker.attribute == "V"


class TestSoundness:
    """The blocker union must keep every true violation."""

    def _assert_covers(self, rows, tau, numeric=(), weights=None):
        _, fd, model, patterns = _setup(rows, numeric=numeric,
                                        weights=weights)
        truth = _violating_index_pairs(patterns, fd, model, tau)
        join = SimilarityJoin(fd, model, tau, strategy="vectorized")
        by_values = {p.values: i for i, p in enumerate(patterns)}
        emitted = {
            (by_values[v.left.values], by_values[v.right.values])
            for v in join.join(patterns)
        }
        assert emitted == truth, (
            f"plan {join.plan.describe()} dropped {truth - emitted}"
        )

    def test_string_typos_covered(self):
        rows = [(f"silver-key-{i:03d}", f"name-{i:03d}") for i in range(30)]
        rows += [("silver-key-001x", "name-001"),  # 1-edit LHS typo
                 ("silver-key-002", "nzme-002")]   # 1-edit RHS typo
        for tau in (0.05, 0.1, 0.25, 0.4):
            self._assert_covers(rows, tau)

    def test_numeric_band_covered(self):
        rows = [(f"key-{i:02d}", float(i * 10)) for i in range(25)]
        rows += [("key-01x", 10.5), ("key-02", 19.9)]
        for tau in (0.05, 0.2, 0.45):
            self._assert_covers(rows, tau, numeric=("V",))

    def test_skewed_weights_covered(self):
        rows = [(f"key-{i:02d}", f"val-{i:02d}") for i in range(25)]
        rows += [("key-01", "val-99"), ("kex-02", "val-02")]
        for weights in (Weights(0.2, 0.8), Weights(0.8, 0.2)):
            for tau in (0.1, 0.3):
                self._assert_covers(rows, tau, weights=weights)

    def test_estimate_matches_emission_for_union(self):
        rows = [(f"maple-key-{i:03d}", f"leaf-{i:03d}") for i in range(40)]
        _, fd, model, patterns = _setup(rows)
        plan, join = _plan(fd, model, 0.15, patterns)
        assert plan.kind == "block"
        # the estimate is the deduplicated candidate count of the union
        assert plan.estimate == join.candidates_generated
        assert join.candidates_generated <= join.possible_pairs


class TestVectorizedQGramPairs:
    def test_emits_all_pairs_within_budget(self):
        values = ["kitten", "sitten", "sitting", "mitten", "banana",
                  "bananas", "cabana"]
        ratio = 0.34  # ~2 edits on 6-7 char values
        kept = _qgram_pairs(values, ratio)
        for i, a in enumerate(values):
            for j in range(i + 1, len(values)):
                b = values[j]
                k = int(ratio * max(len(a), len(b)) + _BUDGET_EPS)
                if levenshtein(a, b) <= k:
                    assert kept.get((i, j)) == k, (a, b)

    def test_budget_uses_longer_length(self):
        # floor(0.25 * 8) = 2 edits; the shorter length would give 1
        assert _qgram_pairs(["abcdefg", "abcdefgh"], 0.25) == {(0, 1): 2}

    def test_length_gap_pruning(self):
        # lengths 3 and 9 at ratio 0.34: budget floor(0.34*9)=3 < gap 6
        assert (0, 1) not in _qgram_pairs(["abc", "abcdefghi"], 0.34)
