"""Tests of the benchmark's reference computations against known terms.

Run with `python3 -m pytest cutbench`; the repository's own test run does not
collect this directory.
"""

from fractions import Fraction

from corpora import distinct_corpus, shared_corpus
from reference import (
    Stirling,
    multinomial,
    partition_by_rank_pattern,
    rank_pattern,
    signature_cuts,
    size_vector_groups,
)
from workloads import CheckError, label_mask

import pytest

S = Stirling(range(13))

A000670 = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261, 102247563]  # Fubini
A007047 = [1, 3, 11, 51, 299, 2163, 18731, 189171, 2183339, 28349043]  # chains in a power set
A000629 = [1, 2, 6, 26, 150, 1082, 9366, 94586, 1091670]  # 2 Fubini(m), m >= 1


def test_stirling_rows():
    assert [S(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]
    assert [S(0, k) for k in range(3)] == [1, 0, 0]
    assert S(12, 13) == 0


def test_fubini_and_totals_match_oeis():
    assert [S.fubini(m) for m in range(len(A000670))] == A000670
    assert [S.total(m) for m in range(len(A007047))] == A007047
    assert [S.rooted_total(m) for m in range(len(A000629))] == A000629


def test_per_k_counts():
    assert S.chains_by_k(4) == [16, 65, 110, 84, 24]
    assert S.rooted_by_k(4) == [1, 15, 50, 60, 24]
    for m in range(1, 12):
        assert sum(S.chains_by_k(m)) == S.total(m)
        assert sum(S.rooted_by_k(m)) == S.rooted_total(m)
        assert S.chains_by_k(m)[m] == S.rooted_by_k(m)[m]  # maximal chains: m!


def test_order_indexed_totals():
    # f_n: classes of order-n fuzzy matrices, all chains over n*n cells
    assert [S.total(n * n) for n in range(4)] == [1, 3, 299, 28349043]


def test_size_vector_groups_are_multinomials():
    assert list(size_vector_groups(4, 3).values()) == [24, 12, 12, 12, 24]
    assert multinomial([2, 1, 1]) == 12
    for m in range(7):
        for k in range(m + 1):
            assert sum(size_vector_groups(m, k).values()) == S.chains_by_k(m)[k]


def F(*values):
    return [Fraction(v) for v in values]


def test_rank_pattern_partition():
    a = F("0.3", "0.7", "0.7", "1")
    b = F("0.1", "0.5", "0.5", "1")  # same order pattern and the same 1-cell
    c = F("0.3", "0.7", "0.7", "0.9")  # no 1-cell
    d = F("0", "0.7", "0.7", "1")  # a 0-cell where a has a positive entry
    assert rank_pattern(a) == rank_pattern(b)
    assert rank_pattern(a) != rank_pattern(c)
    assert rank_pattern(a) != rank_pattern(d)
    keys = [rank_pattern(v) for v in (a, c, b, d, c)]
    assert partition_by_rank_pattern(keys) == [(0, 2), (1, 4), (3,)]


def test_signature_cuts():
    assert signature_cuts(F("0.3", "0.7", "0.7", "1")) == ["0001", "0111", "1111"]
    assert signature_cuts(F("0.3", "0.7", "0.7", "0")) == ["0000", "0110", "1110"]
    assert signature_cuts(F(0, 0)) == ["00"]


def test_labels():
    assert label_mask("A_0", 4) == 0
    assert label_mask("A_4", 4) == 0b1111
    assert label_mask("A_2^{1,3}", 4) == 0b1010
    for bad in ("A_3^{1,3}", "A_2^{3,1}", "A_1^{5}", "A_2"):
        with pytest.raises(CheckError):
            label_mask(bad, 4)


def test_corpora_are_seeded():
    assert shared_corpus(3).text == shared_corpus(3).text
    assert shared_corpus(3).text != shared_corpus(4).text
    assert distinct_corpus(3).text == distinct_corpus(3).text


def test_corpus_make_up():
    shared = shared_corpus(5).report()
    assert shared["matrices"] == 600 and shared["classes"] == 40 and shared["shared_share"] == 1.0
    assert shared["mean_levels"] == 3.5
    distinct = distinct_corpus(5).report()
    assert distinct["matrices"] == 100 and distinct["classes"] >= 99
    assert distinct["mean_levels"] == 34.5
