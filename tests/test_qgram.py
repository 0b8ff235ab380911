"""Tests for the q-gram filter machinery of the vectorized join."""

from hypothesis import given, settings, strategies as st

from repro.core.distances import levenshtein, qgrams
from repro.index.blocking import vectorized_qgram_pairs
from repro.index.qgram import packed_overlap
from repro.index.registry import _StringIndex

words = st.text(alphabet="abcde", max_size=10)
# empty strings, non-ASCII and astral code points, and values long enough
# that a profile's grams span several 64-bit words of the gram matrix
varied = st.one_of(
    st.text(alphabet="ab cé中\U0001f600", max_size=12),
    st.text(min_size=60, max_size=160),
)


def _overlap(a, b, q=2):
    """Distinct-gram overlap of *a* and *b* through the packed matrix."""
    packed, _, _ = _StringIndex([a, b], q).gram_arrays()
    return int(packed_overlap(packed, [0], [1])[0])


def _survives(a, b, ratio, q=2):
    """Whether the length-band + count filter keeps the pair ``(a, b)``."""
    packed, sizes, lengths = _StringIndex([a, b], q).gram_arrays()
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


class TestWordPopcount:
    """The word popcount equals the distinct-gram set intersection."""

    @settings(deadline=None, max_examples=200)
    @given(st.lists(varied, min_size=2, max_size=8, unique=True), st.integers(1, 3))
    def test_overlap_equals_set_intersection(self, values, q):
        packed, sizes, _ = _StringIndex(values, q).gram_arrays()
        n = len(values)
        left = [u for u in range(n) for _ in range(n)]
        right = [v for _ in range(n) for v in range(n)]
        overlap = packed_overlap(packed, left, right).tolist()
        for u, v, got in zip(left, right, overlap):
            expected = set(qgrams(values[u], q)) & set(qgrams(values[v], q))
            assert got == len(expected)
        assert sizes.tolist() == [len(set(qgrams(v, q))) for v in values]

    def test_profiles_wider_than_one_word(self):
        # 100 distinct characters -> 101 distinct bigrams per value
        a = "".join(chr(0x4E00 + i) for i in range(100))
        b = a[:50] + "x" + a[50:]
        packed, _, _ = _StringIndex([a, b], 2).gram_arrays()
        assert packed.shape[0] >= 2
        expected = set(qgrams(a, 2)) & set(qgrams(b, 2))
        assert int(packed_overlap(packed, [0], [1])[0]) == len(expected)


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
