"""Differential tests for the Levenshtein kernel and one-vs-many API.

The Myers bit-parallel kernel (:func:`repro.core.distances.levenshtein`)
is the library's only edit distance; these tests pin it against the DP
oracles in ``tests/oracles.py``:

* ``myers == two_row == banded`` over adversarial unicode (astral-plane
  code points, strings past the 64-bit word boundary, empty strings) and
  every upper-bound regime (``None``, 0, 1, ``len``, negative);
* the prepared one-vs-many comparer returns the same values — and the
  same cache/kernel counter traffic — as the pairwise model method;
* the shared attribute-index registry reuses indexes across joins and
  rebuilds when the underlying values change.

Bounded kernels only promise the exact distance when it is within the
bound; beyond it, two_row may return the true distance while Myers and
banded clamp to ``bound + 1``. Both satisfy the contract, so bounded
comparisons canonicalize through ``min(result, bound + 1)``.

A timing floor also pins Myers at least 2x faster than the two-row DP
on 200-character strings.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distances import DistanceKernel, DistanceModel, levenshtein
from repro.dataset.relation import Relation, Schema
from repro.index.registry import AttributeIndexRegistry
from tests.oracles import levenshtein_banded, levenshtein_two_row

# ascii, space, combining-free accents, CJK, and astral-plane symbols
# (musical G clef, emoji) — the latter exercise non-BMP code points.
ALPHABET = "ab cé中\U0001d11e\U0001f600"
words = st.text(alphabet=ALPHABET, max_size=12)
# strings past 64 characters: crosses the machine-word boundary that a
# word-at-a-time Myers implementation would have to handle explicitly
long_words = st.text(alphabet="ab", min_size=65, max_size=90)


def canonical(result: int, bound: int) -> int:
    """Collapse a bounded result into its contract equivalence class."""
    return min(result, bound + 1)


def bounds_for(a: str, b: str):
    """The upper-bound regimes the issue pins: 0, 1, and len."""
    return sorted({0, 1, max(len(a), len(b))})


class TestKernelDifferential:
    @given(words, words)
    def test_unbounded_agreement(self, a, b):
        expected = levenshtein_two_row(a, b)
        assert levenshtein(a, b) == expected
        # banded needs a bound; max(len) can never be exceeded
        trivial = max(len(a), len(b))
        assert levenshtein_banded(a, b, trivial) == expected

    @given(words, words)
    def test_bounded_agreement(self, a, b):
        for bound in bounds_for(a, b):
            reference = canonical(levenshtein_two_row(a, b, bound), bound)
            assert canonical(levenshtein(a, b, bound), bound) == reference
            assert canonical(levenshtein_banded(a, b, bound), bound) == reference

    @given(words, words, st.integers(min_value=0, max_value=13))
    def test_random_bounds(self, a, b, bound):
        reference = canonical(levenshtein_two_row(a, b, bound), bound)
        assert canonical(levenshtein(a, b, bound), bound) == reference
        assert canonical(levenshtein_banded(a, b, bound), bound) == reference

    @settings(max_examples=40)
    @given(long_words, long_words)
    def test_strings_past_word_boundary(self, a, b):
        expected = levenshtein_two_row(a, b)
        assert levenshtein(a, b) == expected
        bound = len(a) // 2
        assert canonical(levenshtein(a, b, bound), bound) == canonical(
            levenshtein_two_row(a, b, bound), bound
        )

    @given(words)
    def test_empty_versus_any(self, a):
        assert levenshtein("", a) == len(a)
        assert levenshtein(a, "") == len(a)
        for bound in (0, 1, len(a)):
            reference = canonical(levenshtein_two_row("", a, bound), bound)
            assert canonical(levenshtein("", a, bound), bound) == reference
            assert canonical(levenshtein_banded("", a, bound), bound) == reference


class TestDegenerateCorners:
    """Raw (un-canonicalized) agreement on the corners the DP kernels
    used to disagree on: empty strings under tight bounds, negative
    bounds, and a zero bound over equal-length strings."""

    CORNERS = [
        ("", "abc", 1, 2),  # length gap exceeds the bound
        ("", "", 0, 0),  # equal empties are free even at bound 0
        ("", "a", 0, 1),
        ("a", "", 0, 1),
        ("x", "y", -1, 1),  # negative bound: distinct -> bound exceeded
        ("x", "x", -1, 0),  # ...but equality still reports zero
        ("ab", "cd", 0, 1),  # zero bound, equal lengths
        ("ab", "ab", 0, 0),
    ]

    @pytest.mark.parametrize("a,b,bound,expected", CORNERS)
    def test_all_kernels_agree(self, a, b, bound, expected):
        assert levenshtein_two_row(a, b, bound) == expected
        assert levenshtein(a, b, bound) == expected
        assert levenshtein_banded(a, b, bound) == expected


def test_myers_at_least_twice_as_fast_as_two_row():
    """The bit-parallel column update is O(ceil(m/w)) big-int words
    against the DP's O(m) inner loop: on 200-character strings anything
    under 2x means the kernel fell back into scalar behaviour."""
    rng = random.Random(9)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    pairs = []
    for _ in range(60):
        left = [rng.choice(alphabet) for _ in range(200)]
        right = list(left)
        for _ in range(rng.randrange(1, 12)):
            right[rng.randrange(200)] = rng.choice(alphabet)
        pairs.append(("".join(left), "".join(right)))

    def best_of_three(kernel) -> float:
        walls = []
        for _ in range(3):
            start = time.perf_counter()
            for a, b in pairs:
                kernel(a, b)
            walls.append(time.perf_counter() - start)
        return min(walls)

    assert [levenshtein(a, b) for a, b in pairs[:5]] == [
        levenshtein_two_row(a, b) for a, b in pairs[:5]
    ]
    assert best_of_three(levenshtein_two_row) >= 2 * best_of_three(levenshtein)


class TestOneVsMany:
    @given(words, st.lists(words, min_size=1, max_size=8))
    def test_prepared_equals_pairwise(self, left, rights):
        prepared = DistanceKernel.prepare(left)
        for right in rights:
            assert prepared.compare(right) == levenshtein(left, right)

    @given(words, st.lists(words, min_size=1, max_size=8))
    def test_prepared_equals_pairwise_bounded(self, left, rights):
        prepared = DistanceKernel.prepare(left)
        for right in rights:
            for bound in bounds_for(left, right):
                assert canonical(
                    prepared.compare(right, bound), bound
                ) == canonical(levenshtein_two_row(left, right, bound), bound)

    def test_preparation_is_reusable(self):
        prepared = DistanceKernel.prepare("kitten")
        assert prepared.compare("sitting") == 3
        assert prepared.compare("kitten") == 0
        assert prepared.compare("") == 6
        assert prepared.compare("sitting") == 3  # unchanged after reuse


def _twin_models():
    schema = Schema.of("A")
    rows = [("Boston",), ("Boton",), ("Chicago",), ("",)]
    return (
        DistanceModel(Relation(schema, list(rows))),
        DistanceModel(Relation(schema, list(rows))),
    )


class TestPreparedModelEquivalence:
    """model.prepare_distance must be drop-in for the pairwise method:
    same values, same cache traffic, same kernel-call count — on twin
    models fed the same comparison stream."""

    VALUES = ["Boston", "Boton", "Bostn", "Chicago", "", "Bos"]

    def test_prepare_distance_matches(self):
        pairwise, prepared_model = _twin_models()
        for left in self.VALUES:
            compare = prepared_model.prepare_distance("A", left)
            for right in self.VALUES:
                assert compare(right) == pairwise.attribute_distance(
                    "A", left, right
                )
        assert prepared_model.cache_hits == pairwise.cache_hits
        assert prepared_model.cache_misses == pairwise.cache_misses
        assert prepared_model.kernel_calls == pairwise.kernel_calls


class TestRegistry:
    VALUES = ["Boston", "Boton", "Chicago", "Chicag"]

    def test_string_index_built_once_then_reused(self):
        registry = AttributeIndexRegistry()
        registry.string_index("city", list(self.VALUES))
        assert registry.index_builds == 1
        assert registry.index_reuses == 0
        registry.string_index("city", list(self.VALUES))
        assert registry.index_builds == 1
        assert registry.index_reuses == 1

    def test_changed_values_rebuild(self):
        registry = AttributeIndexRegistry()
        registry.string_index("city", list(self.VALUES))
        registry.string_index("city", ["Boston", "Springfield"])
        assert registry.index_builds == 2
        assert registry.index_reuses == 0

    def test_attributes_are_independent(self):
        registry = AttributeIndexRegistry()
        registry.string_index("city", list(self.VALUES))
        registry.string_index("state", ["MA", "IL"])
        assert registry.index_builds == 2

    def test_numeric_index_reuse(self):
        registry = AttributeIndexRegistry()
        registry.numeric_index("score", [3.0, 1.0, 2.0])
        registry.numeric_index("score", [3.0, 1.0, 2.0])
        assert registry.index_builds == 1
        assert registry.index_reuses == 1

    def test_prepared_kernel_interned(self):
        registry = AttributeIndexRegistry()
        assert registry.prepared_kernel("Boston") is registry.prepared_kernel(
            "Boston"
        )

    def test_counters_mapping(self):
        registry = AttributeIndexRegistry()
        registry.string_index("city", list(self.VALUES))
        counters = registry.counters()
        assert counters["index_builds"] == 1
        assert set(counters) == {
            "index_builds",
            "index_reuses",
            "kernel_calls",
        }
