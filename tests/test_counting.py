import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cutchains as cc
from cutchains import cli
from helpers import brute_force_chains, count_chains_top_down, fubini_numbers, size_vector_sums


class TestBinomial:
    @pytest.mark.parametrize("a,b,expected", [(4, 2, 6), (4, 5, 0), (9, 4, 126), (0, 0, 1)])
    def test_examples(self, a, b, expected):
        assert cc.binomial(a, b) == expected

    def test_vanishing_convention(self):
        assert cc.binomial(3, -1) == 0
        assert cc.binomial(3, 4) == 0

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            cc.binomial(-1, 0)

    def test_matches_stdlib(self):
        for a in range(30):
            for b in range(a + 1):
                assert cc.binomial(a, b) == math.comb(a, b)

    def test_symmetry_and_pascal_recurrence(self):
        for a in range(1, 40):
            for b in range(a + 1):
                assert cc.binomial(a, b) == cc.binomial(a, a - b)
                assert cc.binomial(a, b) == cc.binomial(a - 1, b - 1) + cc.binomial(a - 1, b)


class TestSizeVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            cc.SizeVector(4, (2, 2))
        with pytest.raises(ValueError):
            cc.SizeVector(4, (0, 5))
        with pytest.raises(ValueError):
            cc.SizeVector(4, ())
        with pytest.raises(ValueError):
            cc.SizeVector(-1, (0,))

    def test_iteration_is_lexicographic(self):
        vecs = [v.sizes for v in cc.size_vectors(3, 1)]
        assert vecs == sorted(vecs)
        assert len(vecs) == math.comb(4, 2)

    def test_out_of_range_k_yields_nothing(self):
        assert list(cc.size_vectors(3, 4)) == []
        assert list(cc.size_vectors(3, -1)) == []

    def test_multinomial_equality_exhaustive(self):
        # the two chain constructions agree for every size vector, m <= 6
        for m in range(7):
            for k in range(m + 1):
                for vec in cc.size_vectors(m, k):
                    assert vec.count_chains() == count_chains_top_down(vec)

    def test_multinomial_equality_sampled_large(self):
        rng = random.Random(2024)
        for _ in range(300):
            k = rng.randint(0, 25)
            sizes = tuple(sorted(rng.sample(range(26), k + 1)))
            vec = cc.SizeVector(25, sizes)
            assert vec.count_chains() == count_chains_top_down(vec)

    def test_counts_against_stdlib_products(self):
        vec = cc.SizeVector(4, (1, 3))
        assert vec.count_chains() == math.comb(4, 1) * math.comb(3, 2)
        assert count_chains_top_down(vec) == math.comb(4, 3) * math.comb(3, 1)


class TestChainCount:
    @pytest.mark.parametrize(
        "m,k,expected",
        [(4, 2, 110), (4, 3, 84), (9, 5, 6972840), (4, 0, 16), (4, 5, 0), (0, 0, 1)],
    )
    def test_examples(self, m, k, expected):
        assert cc.chain_count(m, k) == expected

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            cc.chain_count(-1, 0)

    def test_negative_k_is_zero(self):
        assert cc.chain_count(4, -2) == 0

    def test_equals_sum_over_size_vectors(self):
        for m in range(6):
            for k in range(m + 2):
                direct = sum(v.count_chains() for v in cc.size_vectors(m, k))
                assert cc.chain_count(m, k) == direct

    def test_boundary_rows(self):
        for m in range(9):
            assert cc.chain_count(m, 0) == 2**m
            assert cc.chain_count(m, m) == math.factorial(m)
            assert cc.chain_count(m, m + 1) == 0


class TestNestedSumTable:
    def test_unrooted_matches_dfs_oracle(self):
        for m in range(17):
            counts = size_vector_sums(m)
            assert cc.chain_counts_by_k(m) == counts
            assert [cc.chain_count(m, k) for k in range(m + 1)] == counts

    @pytest.mark.parametrize("root", ["O", "J"])
    def test_rooted_matches_dfs_oracle(self, root):
        for m in range(17):
            want = size_vector_sums(m, root)
            assert [cc.chain_count_rooted(m, k, root) for k in range(m + 1)] == want

    def test_matches_inclusion_exclusion(self):
        for m in range(61):
            assert cc.chain_counts_by_k(m) == [cc.chain_count_ie(m, k) for k in range(m + 1)]

    @pytest.mark.parametrize("root", ["O", "J"])
    def test_rooted_rows_match_inclusion_exclusion(self, root):
        for row in cc.count_table(6, root=root, method="naive").rows:
            m = row.n * row.n
            assert row.counts == tuple(cc.chain_count_ie(m, k, root) for k in range(m + 1))

    def test_rows_do_not_depend_on_table_size(self):
        # W[r][j] depends on r alone, so one table to 20 cells holds every
        # smaller table's last row, zero past j = r
        table = cc.counting._nested_table(20, 20)
        assert len(table) == 21
        for r, row in enumerate(table):
            assert row == cc.counting._nested_table(r, r)[r] + [0] * (20 - r)


class TestRootedCounts:
    @pytest.mark.parametrize(
        "m,k,root,expected",
        [(4, 0, "O", 1), (4, 1, "O", 15), (4, 2, "O", 50), (4, 1, "J", 15), (4, 0, "J", 1)],
    )
    def test_examples(self, m, k, root, expected):
        assert cc.chain_count_rooted(m, k, root) == expected
        # cross-check each frozen value against the independent brute force
        assert len(brute_force_chains(m, k, root)) == expected

    def test_brute_force_all_small(self):
        for m in range(5):
            for k in range(m + 1):
                assert cc.chain_count_rooted(m, k, "O") == len(brute_force_chains(m, k, "O"))
                assert cc.chain_count_rooted(m, k, "J") == len(brute_force_chains(m, k, "J"))

    def test_out_of_range_k(self):
        assert cc.chain_count_rooted(4, 5, "O") == 0
        assert cc.chain_count_rooted(4, -1, "J") == 0

    def test_bad_root(self):
        with pytest.raises(ValueError):
            cc.chain_count_rooted(4, 1, "X")

    def test_rooted_symmetry(self):
        # complementation reverses chains, swapping the two root conditions
        for m in range(10):
            for k in range(m + 1):
                assert cc.chain_count_rooted(m, k, "O") == cc.chain_count_rooted(m, k, "J")

    def test_rooted_below_unrooted(self):
        # strict except at k = m, where every maximal chain starts empty and ends full
        for n in (1, 2, 3):
            m = n * n
            for k in range(m):
                assert cc.chain_count_rooted(m, k, "O") < cc.chain_count(m, k)
                assert cc.chain_count_rooted(m, k, "J") < cc.chain_count(m, k)
            assert cc.chain_count_rooted(m, m, "O") == cc.chain_count(m, m)
            assert cc.chain_count_rooted(m, m, "J") == cc.chain_count(m, m)


class TestInclusionExclusion:
    @pytest.mark.parametrize("m,k,expected", [(4, 1, 65), (9, 2, 223290), (2, 1, 5)])
    def test_examples(self, m, k, expected):
        assert cc.chain_count_ie(m, k) == expected

    def test_small_value_against_brute_force(self):
        assert len(brute_force_chains(2, 1)) == 5

    def test_agrees_with_summation(self):
        for m in range(10):
            for k in range(m + 2):
                assert cc.chain_count_ie(m, k) == cc.chain_count(m, k)

    def test_out_of_range(self):
        assert cc.chain_count_ie(4, 5) == 0
        assert cc.chain_count_ie(4, -1) == 0
        with pytest.raises(ValueError):
            cc.chain_count_ie(-1, 0)

    def test_rooted_closed_form(self):
        for m in range(31):
            for k in range(m + 2):
                for root in ("O", "J"):
                    assert cc.chain_count_ie(m, k, root) == cc.chain_count_rooted(m, k, root)

    def test_rooted_totals_are_twice_fubini(self):
        # OEIS A000629: 1, 2, 6, 26, 150, 1082
        assert [sum(cc.chain_count_ie(m, k, "O") for k in range(m + 1)) for m in range(6)] == [
            1, 2, 6, 26, 150, 1082,
        ]

    def test_bad_root(self):
        with pytest.raises(ValueError):
            cc.chain_count_ie(4, 1, "X")

    def test_memory_bounded_without_binomial_table(self):
        # k+1 terms need O(1) binomials at a time, not Pascal rows up to k
        tracemalloc.start()
        try:
            value = cc.chain_count_ie(1000, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == math.factorial(1000)  # maximal chains: one cell enters per step
        assert peak < 2**20

    @pytest.mark.parametrize("root", [None, "O", "J"])
    def test_difference_row_matches_per_k_sums(self, root):
        rows = list(cc.counting._ie_rows(60, root))
        assert len(rows) == 61
        for m, row in enumerate(rows):
            assert row == [cc.chain_count_ie(m, k, root) for k in range(m + 1)]

    @pytest.mark.parametrize("root", [None, "O", "J"])
    def test_total_matches_difference_row(self, root):
        for m, row in enumerate(cc.counting._ie_rows(400, root)):
            assert cc.counting._ie_total(m, root) == sum(row)

    def test_total_regrouped_by_power(self):
        # a(2), a(1), a(0) = 1, -1, 1 over the bases m+s..s: 4 - 9 + 16 and 1 - 4 + 9
        assert cc.counting._ie_total(2, None) == 11
        assert cc.counting._ie_total(2, "O") == 6

    @pytest.mark.parametrize("root", [None, "O", "J"])
    def test_lower_bound_below_the_count_and_tight_at_full_length(self, root):
        # the O(1) bound that refuses a job before its count is computed
        for m, row in enumerate(cc.counting._ie_rows(40, root)):
            for k, count in enumerate(row):
                bound = cc.counting._ln_chains_at_least(m, k, root)
                assert bound <= math.log(count) * (1 + 1e-12) + 1e-12, (m, k)
            assert math.isclose(bound, math.lgamma(m + 1), abs_tol=1e-12)  # m! at k = m


class TestTotals:
    def test_sequence_values(self):
        assert cc.total_count(0) == 1
        assert cc.total_count(1) == 3
        assert cc.total_count(2) == 299
        assert cc.total_count(3) == 28349043
        assert cc.total_count(4) == 21262618727925419

    def test_methods_agree(self):
        for n in range(5):
            assert cc.total_count(n, method="naive") == cc.total_count(n, method="ie")
            for root in ("O", "J"):
                naive = cc.total_count(n, root, method="naive")
                assert naive == cc.total_count(n, root, method="ie")

    def test_totals_are_four_fubini_minus_one(self):
        # OEIS A007047 = 4 * A000670 - 1 for m >= 1; rooted, A000629 = 2 * A000670
        fubini = fubini_numbers(18 * 18)
        for method, max_n in (("ie", 18), ("naive", 4)):
            for n, total in cc.sequence(max_n, method=method)[1:]:
                assert total == 4 * fubini[n * n] - 1
        for n in range(1, 19):
            for root in ("O", "J"):
                assert cc.total_count(n, root, method="ie") == 2 * fubini[n * n]

    def test_total_holds_no_row(self):
        # the per-k row over 1,444 cells alone takes about 2.4 MiB
        tracemalloc.start()
        try:
            value = cc.total_count(38)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == 2 * cc.total_count(38, "O") - 1  # 4 F(m) - 1 against 2 F(m)
        assert len(str(value)) == 4168
        assert peak < 2**16

    def test_bad_method(self):
        with pytest.raises(ValueError):
            cc.total_count(2, method="guess")
        with pytest.raises(ValueError, match="^method must be"):
            cc.sequence(2, method="guess")

    @pytest.mark.parametrize("method", ["naive", "ie", "auto"])
    def test_bad_root(self, method):
        with pytest.raises(ValueError, match="root must be"):
            cc.total_count(2, "X", method=method)
        with pytest.raises(ValueError, match="root must be"):
            cc.count_table(0, root="X", method=method)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cc.total_count(-1)

    def test_row_sums(self):
        for n in range(4):
            assert sum(cc.chain_counts_by_k(n * n)) == cc.total_count(n)

    def test_rooted_totals_match_brute_force(self):
        for n in (0, 1, 2):
            m = n * n
            for root in ("O", "J"):
                expected = sum(len(brute_force_chains(m, k, root)) for k in range(m + 1))
                assert cc.total_count(n, root) == expected


class TestFlagAndTermCounts:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 24), (3, 362880)])
    def test_flag_examples(self, n, expected):
        assert cc.flag_count(n) == expected
        assert cc.chain_count(n * n, n * n) == expected

    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 3), (2, 31), (3, 1023)])
    def test_term_examples(self, n, expected):
        assert cc.term_count(n) == expected

    def test_instrumented_visit_counts(self):
        for n in (1, 2, 3):
            m = n * n
            by_k = [list(cc.size_vectors(m, k)) for k in range(m + 1)]
            assert sum(map(len, by_k)) == cc.term_count(n)
            counts = [sum(v.count_chains() for v in vecs) for vecs in by_k]
            assert counts == cc.chain_counts_by_k(m)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cc.flag_count(-1)
        with pytest.raises(ValueError):
            cc.term_count(-1)


class TestTableAndSequence:
    def test_table_matches_published_rows(self):
        table = cc.count_table(3)
        assert [row.counts for row in table.rows] == [
            (1,),
            (2, 1),
            (16, 65, 110, 84, 24),
            (512, 19171, 223290, 1225230, 3759840, 6972840, 8013600, 5594400, 2177280, 362880),
        ]
        assert [row.total for row in table.rows] == [1, 3, 299, 28349043]

    @pytest.mark.parametrize("root", [None, "O", "J"])
    def test_sweep_matches_nested_tables(self, root):
        for n in range(5):
            assert cc.count_table(n, root=root) == cc.count_table(n, root=root, method="naive")

    def test_one_sweep_per_table(self, monkeypatch):
        calls = []
        sweep = cc.counting._ie_rows

        def counted(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(cc.counting, "_ie_rows", counted)
        table = cc.count_table(6, root="J")
        assert calls == [(36, "J")]
        assert table.rows[6].counts == tuple(cc.chain_count_ie(36, k, "J") for k in range(37))

    def test_one_nested_table_per_naive_table_and_sequence(self, monkeypatch):
        calls = []
        nested = cc.counting._nested_table

        def counted(*args):
            calls.append(args)
            return nested(*args)

        monkeypatch.setattr(cc.counting, "_nested_table", counted)
        for root in (None, "O", "J"):
            calls.clear()
            table = cc.count_table(5, root=root, method="naive")
            assert calls == [(25, 25)]
            assert table == cc.count_table(5, root=root, method="ie")
        calls.clear()
        assert cc.sequence(5, method="naive") == cc.sequence(5, method="ie")
        assert calls == [(25, 25)]

    def test_rooted_table(self):
        table = cc.count_table(2, root="O")
        assert table.rows[2].counts == (1, 15, 50, 60, 24)
        assert table.rows[2].total == 150

    def test_table_csv_and_json(self):
        rows = cc.count_table(1).rows
        csv = "".join(cli._table_csv_lines(rows))
        assert csv == "n,k,f_nk,f_n\n0,0,1,1\n1,0,2,3\n1,1,1,3\n"
        assert json.loads("".join(cli._table_json_chunks(rows, None, 1))) == {
            "root": None,
            "max_n": 1,
            "rows": [
                {"n": 0, "counts": [1], "total": 1},
                {"n": 1, "counts": [2, 1], "total": 3},
            ],
        }

    def test_csv_lines_one_line_each(self):
        rows = cc.count_table(3, root="J").rows
        lines = list(cli._table_csv_lines(rows))
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
        assert lines[1:] == [
            f"{row.n},{k},{value},{row.total}\n" for row in rows for k, value in enumerate(row.counts)
        ]
        assert len(lines) == 1 + sum(n * n + 1 for n in range(4))

    def test_csv_lines_stream(self):
        # joined, the CSV text of this table allocates about 49 MiB; each line is dropped once written
        table = cc.count_table(30)
        tracemalloc.start()
        try:
            count = sum(1 for _ in cli._table_csv_lines(table.rows))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 1 + sum(n * n + 1 for n in range(31))
        assert peak < 2**20

    def test_row_total_validated(self):
        with pytest.raises(ValueError):
            cc.CountRow(1, (2, 1), 4)

    def test_row_order_validated(self):
        with pytest.raises(ValueError, match="^order must be nonnegative, got -1$"):
            cc.CountRow(-1, (1, 0), 1)

    def test_table_validated(self):
        with pytest.raises(ValueError, match="^root must be \"O\" or \"J\", got 'X'$"):
            cc.CountTable((), root="X")
        with pytest.raises(ValueError, match="^row 0 of a count table is for order 1, not 0$"):
            cc.CountTable((cc.CountRow(1, (1, 1), 2),))
        rows = cc.count_table(2).rows
        with pytest.raises(ValueError, match="^row 1 of a count table is for order 2, not 1$"):
            cc.CountTable((rows[0], rows[2]))
        assert cc.CountTable(rows=rows[:2], root="O").max_n == 1

    def test_sequence(self):
        assert cc.sequence(4) == [
            (0, 1),
            (1, 3),
            (2, 299),
            (3, 28349043),
            (4, 21262618727925419),
        ]
        assert cc.sequence(0) == [(0, 1)]

    def test_sequence_sweep_matches_lone_totals(self):
        # each power carried from the order before, against fresh powers per total
        assert cc.sequence(30, method="ie") == [(n, cc.total_count(n)) for n in range(31)]

    @pytest.mark.parametrize("root", [None, "O", "J"])
    def test_carried_powers_match_fresh_ones(self, root):
        totals = list(cc.counting._ie_totals(20, root))
        assert totals == [cc.counting._ie_total(n * n, root) for n in range(21)]

    @given(st.integers(min_value=0, max_value=3))
    def test_sequence_methods_agree(self, max_n):
        assert cc.sequence(max_n) == cc.sequence(max_n, method="ie")
