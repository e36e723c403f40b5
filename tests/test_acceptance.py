"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected number is asserted exactly (no tolerances anywhere).
"""

import random
import time
from pathlib import Path

import cutchains as cc
from cutchains.cli import main
from helpers import (
    count_chains_top_down,
    grid_matrices,
    grid_values,
    order_preserving_remap,
    random_matrix,
    size_vector_sums,
)

GOLDEN_TABLE = Path(__file__).parent / "data" / "table_max3.csv"

TABLE_ROWS = {
    0: ([1], 1),
    1: ([2, 1], 3),
    2: ([16, 65, 110, 84, 24], 299),
    3: (
        [512, 19171, 223290, 1225230, 3759840, 6972840, 8013600, 5594400, 2177280, 362880],
        28349043,
    ),
}

SEQUENCE = [1, 3, 299, 28349043, 21262618727925419]


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    code = main(["table", "--max-n", "3"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out == GOLDEN_TABLE.read_text()
    lines = out.strip().splitlines()[1:]
    seen = {}
    for line in lines:
        n, k, f_nk, f_n = (int(x) for x in line.split(","))
        counts, total = TABLE_ROWS[n]
        assert f_nk == counts[k]
        assert f_n == total
        seen.setdefault(n, 0)
        seen[n] += 1
    assert {n: len(counts) for n, (counts, _) in TABLE_ROWS.items()} == seen
    assert elapsed < 1.0
    print(f"\ncriterion 1: PASS - table --max-n 3 exact in {elapsed:.3f}s")


def test_criterion_2_sequence_via_nested_sums():
    start = time.perf_counter()
    values = [sum(size_vector_sums(n * n)) for n in range(5)]
    visited = sum(1 for k in range(17) for _ in cc.size_vectors(16, k))
    assert visited == 2**17 - 1 == cc.term_count(4)
    elapsed = time.perf_counter() - start
    assert values == SEQUENCE
    assert elapsed < 10.0
    print(f"criterion 2: PASS - f_0..f_4 by nested sums in {elapsed:.3f}s")


def test_criterion_3_worked_examples():
    start = time.perf_counter()
    assert cc.chain_count(4, 2) == 110
    groups = cc.group_by_size_vector(4, 3)
    assert groups == {
        (0, 1, 2, 3): 24,
        (0, 1, 2, 4): 12,
        (0, 1, 3, 4): 12,
        (0, 2, 3, 4): 12,
        (1, 2, 3, 4): 24,
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 3: PASS - worked examples exact in {elapsed:.3f}s")


def test_criterion_4_oracle_triangle():
    start = time.perf_counter()
    for m in range(5):
        for k in range(m + 2):
            naive = cc.chain_count(m, k)
            assert naive == cc.chain_count_ie(m, k)
            assert naive == cc.count_chains(m, k)
    for k, expected in ((1, 19171), (2, 223290)):
        naive = cc.chain_count(9, k)
        assert naive == expected
        assert cc.chain_count_ie(9, k) == expected
        assert cc.count_chains(9, k) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 4: PASS - summation = inclusion-exclusion = enumeration in {elapsed:.3f}s")


def test_criterion_5_size_vector_accounting():
    for n in (1, 2, 3):
        visited = sum(1 for k in range(n * n + 1) for _ in cc.size_vectors(n * n, k))
        assert visited == 2 ** (n * n + 1) - 1
        assert visited == cc.term_count(n)
    print("criterion 5: PASS - summation visits exactly 2^(n^2+1)-1 size vectors (3, 31, 1023)")


def test_criterion_6_flag_counts():
    import math

    expected = {1: 1, 2: 24, 3: 362880}
    for n, value in expected.items():
        m = n * n
        assert cc.chain_count(m, m) == value
        assert cc.flag_count(n) == value
        assert value == math.factorial(m)
    assert cc.count_table(3).rows[3].counts[-1] == 362880
    print("criterion 6: PASS - maximal-chain counts equal (n^2)! (1, 24, 362880)")


def test_criterion_7_classification_bijection():
    start = time.perf_counter()
    cases = [
        (2, grid_values(4), 299),  # {0, 0.2, 0.4, 0.6, 0.8, 1}
        (2, grid_values(0), 16),  # {0, 1}
        (2, grid_values(1), 81),  # {0, 0.5, 1}
        (1, grid_values(1), 3),
    ]
    for n, values, expected in cases:
        result = cc.classify_corpus(grid_matrices(n, values))
        assert len(result) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 7: PASS - 299/16/81/3 classes on the stated grids in {elapsed:.3f}s")


def test_criterion_8_procedure_agreement_and_round_trip():
    start = time.perf_counter()
    corpus = list(grid_matrices(2, grid_values(1)))
    assert len(corpus) == 81
    signatures = [cc.signature(f) for f in corpus]
    pairs = 0
    for i in range(len(corpus)):
        for j in range(i, len(corpus)):
            direct = cc.equivalent_direct(corpus[i], corpus[j])
            assert direct == (signatures[i] == signatures[j])
            pairs += 1
    assert pairs >= 3300

    rng = random.Random(20240823)
    random_pairs = 0
    random_mats = []
    while random_pairs < 10_000:
        n = rng.randint(1, 3)
        a = random_matrix(rng, n)
        b = order_preserving_remap(a) if rng.random() < 0.5 else random_matrix(rng, n)
        assert cc.equivalent_direct(a, b) == cc.equivalent_cuts(a, b)
        random_mats.append(a)
        random_mats.append(b)
        random_pairs += 1

    for f in corpus:
        assert cc.reconstruct(cc.cut_chain(f)) == f
    for f in random_mats:
        assert cc.reconstruct(cc.cut_chain(f)) == f
    elapsed = time.perf_counter() - start
    print(
        f"criterion 8: PASS - {pairs} grid pairs + {random_pairs} random pairs agree, "
        f"round-trip exact, in {elapsed:.3f}s"
    )


def test_criterion_9_fast_path_and_cross_validation():
    # closed-form path: f_5 in under a second
    start = time.perf_counter()
    m = 25
    ie_value = sum(cc.chain_count_ie(m, k) for k in range(m + 1))
    ie_elapsed = time.perf_counter() - start
    assert ie_elapsed < 1.0

    # the two constructions of every sampled size-vector term agree at m = 25
    rng = random.Random(5)
    for _ in range(500):
        k = rng.randint(0, m)
        sizes = tuple(sorted(rng.sample(range(m + 1), k + 1)))
        vec = cc.SizeVector(m, sizes)
        assert vec.count_chains() == count_chains_top_down(vec)

    # nested-sum confirmation of f_5
    start = time.perf_counter()
    naive_value = sum(cc.chain_counts_by_k(m))
    naive_elapsed = time.perf_counter() - start
    assert naive_value == ie_value
    assert naive_elapsed < 600.0
    print(
        f"criterion 9: PASS - f_5 = {ie_value} closed-form in {ie_elapsed:.3f}s; "
        f"nested sums confirmed f_5 in {naive_elapsed:.1f}s"
    )
