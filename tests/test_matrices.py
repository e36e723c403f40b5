import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cutchains import (
    CrispMatrix,
    FuzzyMatrix,
    contains,
    format_value,
    fuzzy_complement,
    fuzzy_contains,
    fuzzy_intersection,
    fuzzy_union,
    parse_value,
)
from helpers import all_crisp, fuzzy_matrices, matrix_of_order, unit_fractions


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0.25", Fraction(1, 4)),
            ("1/4", Fraction(1, 4)),
            ("0", Fraction(0)),
            ("1", Fraction(1)),
            ("0.5", Fraction(1, 2)),
            ("3/7", Fraction(3, 7)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_value(text) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "1/0", "0..5"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_value(bad)

    def test_exponent_at_bound_parses(self):
        assert parse_value("1e-4300") == Fraction(1, 10**4300)
        assert parse_value("25E-2") == Fraction(1, 4)

    @pytest.mark.parametrize("text", ["1e-30000000", "1E-4301", "0e99999999"])
    def test_large_exponent_refused_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent"):
            parse_value(text)
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(1, 4), "0.25"),
            (Fraction(1, 3), "1/3"),
            (Fraction(7, 50), "0.14"),
            (Fraction(1), "1"),
            (Fraction(0), "0"),
            (Fraction(1, 2), "0.5"),
        ],
    )
    def test_format(self, value, text):
        assert format_value(value) == text

    @given(st.fractions(min_value=0, max_value=1, max_denominator=1000))
    def test_parse_format_round_trip(self, value):
        assert parse_value(format_value(value)) == value


class TestCrispMatrix:
    def test_bits_example(self):
        # diagonal support of order 2: cell 1 is the top bit, cell 4 the bottom one
        a = CrispMatrix(2, 0b1001)
        assert a.bits == "1001"
        assert CrispMatrix.from_bits("1001") == a
        assert CrispMatrix(2, 0b0100).bits == "0100"  # cell (1, 2)
        assert len(a) == 2

    def test_from_bits_round_trip(self):
        for i in range(16):
            bits = format(i, "04b")
            assert CrispMatrix.from_bits(bits).bits == bits

    def test_out_of_range_cell_rejected(self):
        # a fifth cell does not exist in an order-2 matrix
        with pytest.raises(ValueError):
            CrispMatrix(2, 1 << 4)
        with pytest.raises(ValueError):
            CrispMatrix(2, -1)
        assert CrispMatrix(2, (1 << 4) - 1) == CrispMatrix.ones(2)

    def test_from_bits_rejects_nonsquare_and_junk(self):
        with pytest.raises(ValueError):
            CrispMatrix.from_bits("101")
        with pytest.raises(ValueError):
            CrispMatrix.from_bits("10x1")

    def test_order_zero(self):
        assert CrispMatrix.zeros(0) == CrispMatrix.ones(0)
        assert CrispMatrix.from_bits("").order == 0

    def test_containment_examples(self):
        o, j = CrispMatrix.zeros(2), CrispMatrix.ones(2)
        assert contains(o, j, strict=True)
        a = CrispMatrix.from_bits("1000")
        assert not contains(a, a, strict=True)
        assert contains(a, a)
        b = CrispMatrix.from_bits("1100")
        assert contains(a, b, strict=True)
        assert not contains(b, a)
        assert not contains(a, CrispMatrix.from_bits("0111"))

    def test_containment_order_mismatch(self):
        with pytest.raises(ValueError):
            contains(CrispMatrix.zeros(1), CrispMatrix.zeros(2))

    def test_proper_inclusion_is_strict_partial_order(self):
        mats = all_crisp(2)
        for a in mats:
            assert not a.ispropersubset(a)
        for a in mats:
            for b in mats:
                for c in mats:
                    if a.ispropersubset(b) and b.ispropersubset(c):
                        assert a.ispropersubset(c)


class TestFuzzyMatrix:
    def test_entry_range_enforced(self):
        with pytest.raises(ValueError):
            FuzzyMatrix.from_rows([["2"]])
        with pytest.raises(ValueError):
            FuzzyMatrix(1, ((Fraction(-1, 2),),))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            FuzzyMatrix(1, ((0.5,),))

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            FuzzyMatrix(2, ((Fraction(0),),))

    def test_text_round_trip_example(self):
        f = FuzzyMatrix.parse_text("0.3 0.7\n0.7 1\n")
        assert f.entry(1, 2) == Fraction(7, 10)
        assert f.to_text() == "0.3 0.7\n0.7 1"
        assert FuzzyMatrix.parse_text(f.to_text()) == f

    def test_json_round_trip(self):
        f = FuzzyMatrix.from_rows([["1/3", "0"], ["1", "0.25"]])
        data = f.to_json_dict()
        assert data == {"n": 2, "entries": [["1/3", "0"], ["1", "0.25"]]}
        assert FuzzyMatrix.from_json_dict(data) == f

    def test_json_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            FuzzyMatrix.from_json_dict({"entries": [["0"]]})
        with pytest.raises(ValueError):
            FuzzyMatrix.from_json_dict({"n": "1", "entries": [["0"]]})

    def test_json_rejects_bool_order(self):
        with pytest.raises(ValueError, match='"n" must be an integer'):
            FuzzyMatrix.from_json_dict({"n": True, "entries": [["0.5"]]})

    def test_order_zero(self):
        f = FuzzyMatrix(0, ())
        assert f.to_text() == ""
        assert FuzzyMatrix.parse_text("") == f

    @given(fuzzy_matrices())
    def test_text_round_trip(self, f):
        assert FuzzyMatrix.parse_text(f.to_text()) == f

    @given(fuzzy_matrices())
    def test_json_round_trip_property(self, f):
        assert FuzzyMatrix.from_json_dict(f.to_json_dict()) == f


class TestFuzzyAlgebra:
    def test_examples(self):
        a = FuzzyMatrix.from_rows([["0.3"]])
        b = FuzzyMatrix.from_rows([["0.5"]])
        assert fuzzy_complement(a) == FuzzyMatrix.from_rows([["0.7"]])
        assert fuzzy_union(a, b) == b
        assert fuzzy_intersection(a, b) == a
        assert fuzzy_contains(a, b)
        assert not fuzzy_contains(b, a)

    def test_order_mismatch(self):
        a = FuzzyMatrix.from_rows([["0.3"]])
        b = FuzzyMatrix(2, ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))
        for op in (fuzzy_union, fuzzy_intersection, fuzzy_contains):
            with pytest.raises(ValueError):
                op(a, b)

    @given(fuzzy_matrices())
    def test_complement_involution(self, f):
        assert fuzzy_complement(fuzzy_complement(f)) == f

    @given(fuzzy_matrices())
    def test_idempotent(self, f):
        assert fuzzy_union(f, f) == f
        assert fuzzy_intersection(f, f) == f

    @given(st.integers(0, 2).flatmap(lambda n: st.tuples(matrix_of_order(n), matrix_of_order(n))))
    def test_commutative(self, pair):
        a, b = pair
        assert fuzzy_union(a, b) == fuzzy_union(b, a)
        assert fuzzy_intersection(a, b) == fuzzy_intersection(b, a)

    @given(
        st.integers(0, 2).flatmap(
            lambda n: st.tuples(matrix_of_order(n), matrix_of_order(n), matrix_of_order(n))
        )
    )
    def test_associative(self, triple):
        a, b, c = triple
        assert fuzzy_union(fuzzy_union(a, b), c) == fuzzy_union(a, fuzzy_union(b, c))
        assert fuzzy_intersection(fuzzy_intersection(a, b), c) == fuzzy_intersection(
            a, fuzzy_intersection(b, c)
        )

    @given(st.lists(unit_fractions, min_size=1, max_size=4))
    def test_union_is_cellwise_max(self, values):
        n = 1
        mats = [FuzzyMatrix(n, ((v,),)) for v in values]
        acc = mats[0]
        for mat in mats[1:]:
            acc = fuzzy_union(acc, mat)
        assert acc.entry(1, 1) == max(values)
