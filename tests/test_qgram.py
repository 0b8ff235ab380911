"""Tests for the q-gram filter machinery of the vectorized join."""

from hypothesis import given, strategies as st

from repro.core.distances import levenshtein
from repro.index.blocking import vectorized_qgram_pairs
from repro.index.qgram import packed_overlap
from repro.index.registry import _StringIndex

words = st.text(alphabet="abcde", max_size=10)


def _overlap(a, b, q=2):
    """Distinct-gram overlap of *a* and *b* through the packed matrix."""
    _, _, packed, _, _ = _StringIndex([a, b], q).gram_arrays()
    return int(packed_overlap(packed, [0], [1])[0])


def _survives(a, b, ratio, q=2):
    """Whether the length-band + count filter keeps the pair ``(a, b)``."""
    _, _, packed, sizes, lengths = _StringIndex([a, b], q).gram_arrays()
    u, _, _, _ = vectorized_qgram_pairs(packed, sizes, lengths, ratio, q)
    return u.size == 1


class TestOverlap:
    def test_identical(self):
        assert _overlap("abc", "abc") == 4  # #a ab bc c$

    def test_disjoint(self):
        assert _overlap("aaa", "zzz") == 0

    def test_repeated_grams_count_once(self):
        # 'aaaa' has gram 'aa' three times, 'aa' once; both profiles are
        # the same distinct set {#a, aa, a$}
        assert _overlap("aaaa", "aa") == 3


class TestCountFilter:
    def test_never_rejects_true_match(self):
        assert _survives("Boston", "Boton", 0.17)  # 1 edit allowed

    def test_rejects_distant_pair(self):
        assert not _survives("aaaaaaaa", "zzzzzzzz", 0.125)  # 1 edit allowed

    def test_zero_budget_rejects_any_difference(self):
        assert not _survives("x", "y", 0.0)

    @given(words, words, st.integers(0, 5))
    def test_soundness(self, a, b, k):
        """The filter may only reject pairs whose distance exceeds k."""
        if a != b and levenshtein(a, b) <= k:
            assert _survives(a, b, k / max(len(a), len(b)))
