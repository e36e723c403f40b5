import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutchains import CrispMatrix, FuzzyMatrix, format_value, matrices, parse_value
from cutchains.matrices import MAX_DIGITS
from helpers import all_crisp, fuzzy_complement, fuzzy_matrices, parse_value_oracle

# Text shaped like the parser's ASCII fast path ("d", "d.ddd", "p/q") and its
# near misses: leading zeros, empty parts, zero denominators, signs,
# whitespace, exponents, underscores, and Unicode and superscript digits.
ascii_digits = st.text(alphabet="0123456789", max_size=8)
other_digits = st.text(alphabet="0123456789_\u00b2\u00b9\u0661\u0662\u0660\uff11", max_size=6)
fast_path_shaped = st.tuples(
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", "+", "-"]),
    st.one_of(ascii_digits, other_digits),
    st.sampled_from(["", ".", "/", "./", "..", "//"]),
    st.one_of(ascii_digits, other_digits),
    st.sampled_from(["", "e2", "E-3", "e", "e+0"]),
    st.sampled_from(["", " ", "\n"]),
).map("".join)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def _digit_limit_examples():
    """Each part of a value at MAX_DIGITS digits, and one digit past it."""
    at, past = "1" * MAX_DIGITS, "1" * (MAX_DIGITS + 1)
    cases = {
        "integer-at": (at, True), "integer-past": (past, False),
        "tail-at": ("0." + at, True), "tail-past": ("0." + past, False),
        "head-and-tail-at": (at + "." + at, True), "head-past": (past + ".5", False),
        "fraction-at": (at + "/" + at, True), "denominator-past": ("1/" + past, False),
        "numerator-past": (past + "/3", False),
    }
    return [pytest.param(text, accepted, id=name) for name, (text, accepted) in cases.items()]


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
            (".5", Fraction(1, 2)),
            ("5.", Fraction(5)),
            ("0.", Fraction(0)),
            (".0", Fraction(0)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_value(text) == expected

    @pytest.mark.parametrize("text", ["0.25", ".25", "5.", "0.", ".0", "1/4", "7"])
    def test_plain_ascii_spellings_skip_fractions_parser(self, text, monkeypatch):
        def no_text(value, *rest):
            assert not isinstance(value, str), f"Fraction parsed {value!r}"
            return Fraction(value, *rest)

        monkeypatch.setattr(matrices, "Fraction", no_text)
        assert parse_value(text) == Fraction(text)

    @pytest.mark.parametrize("bad", ["", "abc", "1/0", "0..5", ".", "./1", "/5", "5/"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError, match=f"^not a rational value: {re.escape(repr(bad))}$"):
            parse_value(bad)

    @settings(max_examples=500)
    @given(st.one_of(st.text(max_size=12), fast_path_shaped))
    @example("0." + "1" * MAX_DIGITS)
    @example("0." + "1" * (MAX_DIGITS + 1))
    @example("9" * MAX_DIGITS + "." + "9" * MAX_DIGITS)
    @example("1/" + "3" * MAX_DIGITS)
    @example("1" * (MAX_DIGITS + 1) + "/3")
    @example("." + "1" * MAX_DIGITS)
    @example("." + "1" * (MAX_DIGITS + 1))
    @example("1" * (MAX_DIGITS + 1) + ".")
    @example(".5")
    @example("5.")
    @example(".")
    @example("./1")
    @example("0.")
    @example(".0")
    def test_parse_agrees_with_fraction(self, text):
        """The same Fraction as Fraction's own parser, or a ValueError from both."""
        assert _outcome(parse_value, text) == _outcome(parse_value_oracle, text)

    @pytest.mark.parametrize("text,accepted", _digit_limit_examples())
    def test_digit_limit_per_part(self, text, accepted):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(MAX_DIGITS)  # as the CLI pins it
        try:
            assert _outcome(parse_value, text) == _outcome(parse_value_oracle, text)
            assert (_outcome(parse_value, text) is not ValueError) == accepted
        finally:
            sys.set_int_max_str_digits(previous)

    @pytest.mark.parametrize(
        "text",
        ["1" * 10**6, "0." + "1" * 10**6, "x" * 10**6, "1" * 10**6 + "e-99999"],
        ids=["integer", "decimal", "junk", "exponent"],
    )
    def test_error_text_bounded(self, text):
        with pytest.raises(ValueError) as info:
            parse_value(text)
        message = str(info.value)
        assert len(message) < 120 and f"... ({len(text)} characters)" in message

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
    # a 2^a * 5^b denominator takes max(a, b) decimal digits, read up to MAX_DIGITS
    @example(Fraction(1, 2**MAX_DIGITS))
    @example(Fraction(1, 2 ** (MAX_DIGITS + 1)))
    @example(Fraction(2**5000 - 1, 2**5000))
    @example(Fraction(1, 2**14000))
    @example(Fraction(1, 5 ** (MAX_DIGITS + 1)))
    # the sign prints apart from the digits, and no part passes the digit limit
    @example(Fraction(-1, 400))
    @example(Fraction(-1, 40))
    @example(Fraction(-5, 4))
    @example(Fraction(10**3000 + 1, 2**3000))
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
        assert o.ispropersubset(j)
        a = CrispMatrix.from_bits("1000")
        assert not a.ispropersubset(a)
        assert a.issubset(a)
        b = CrispMatrix.from_bits("1100")
        assert a.ispropersubset(b)
        assert not b.issubset(a)
        assert not a.issubset(CrispMatrix.from_bits("0111"))

    def test_containment_order_mismatch(self):
        with pytest.raises(ValueError):
            CrispMatrix.zeros(1).issubset(CrispMatrix.zeros(2))

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

    def test_range_messages(self):
        with pytest.raises(ValueError, match=r"^membership value 3/2 outside \[0, 1\]$"):
            FuzzyMatrix.from_rows([["3/2"]])
        with pytest.raises(ValueError, match=r"^membership value -1/2 outside \[0, 1\]$"):
            FuzzyMatrix.from_rows([["-0.5"]])
        FuzzyMatrix.from_rows([["0", "1"], ["1/2", "0.999"]])  # both ends included

    def test_range_message_bounded(self):
        # str() of this value would pass the digit limit
        above = "1." + "0" * (MAX_DIGITS - 1) + "1"
        sized = r"\(\d+-bit integer\)/\(\d+-bit integer\)"
        with pytest.raises(ValueError, match=rf"^membership value {sized} outside \[0, 1\]$"):
            FuzzyMatrix.from_rows([[above]])
        with pytest.raises(ValueError, match=rf"^membership value -{sized} outside"):
            FuzzyMatrix(1, ((Fraction(-(10**4000)),),))

    def test_fraction_entries_kept(self):
        third = Fraction(1, 3)
        assert FuzzyMatrix(1, ((third,),)).entry(1, 1) is third

    def test_each_entry_coerced_and_range_checked(self):
        class Level(Fraction):
            pass

        half = Level(1, 2)
        f = FuzzyMatrix(2, ((half, "1/4"), (1, Fraction(0))))
        assert f.entry(1, 1) is half
        assert f.entries == ((Fraction(1, 2), Fraction(1, 4)), (Fraction(1), Fraction(0)))
        refusals = [
            (True, TypeError, "^cannot use bool as a membership value$"),
            (0.5, TypeError, r"^float entries are not allowed \(got 0\.5\); use a string or Fraction$"),
            ("x", ValueError, "^not a rational value: 'x'$"),
            (Fraction(3, 2), ValueError, r"^membership value 3/2 outside \[0, 1\]$"),
            (Level(-1, 3), ValueError, r"^membership value -1/3 outside \[0, 1\]$"),
            (None, TypeError, "^cannot use NoneType as a membership value$"),
        ]
        for value, error, message in refusals:
            # the refused value last, after entries that are already Fractions
            with pytest.raises(error, match=message):
                FuzzyMatrix(2, ((Fraction(1, 2), half), (Fraction(0), value)))

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

    def test_json_order_errors_bounded(self):
        for n in (10**4000, -1, 2):
            with pytest.raises(ValueError, match=r'^"n" must equal the number of rows'):
                FuzzyMatrix.from_json_dict({"n": n, "entries": [["0"]]})
        with pytest.raises(ValueError, match=r"\.\.\. \(100000 characters\)$"):
            FuzzyMatrix.from_json_dict({"n": "9" * 10**5, "entries": []})

    def test_json_rejects_bool_order(self):
        with pytest.raises(ValueError, match='"n" must be an integer'):
            FuzzyMatrix.from_json_dict({"n": True, "entries": [["0.5"]]})

    def test_json_entries_coerced_as_by_the_constructor(self):
        with pytest.raises(TypeError, match="float entries are not allowed"):
            FuzzyMatrix.from_json_dict({"n": 1, "entries": [[0.5]]})
        for flag in (True, False):
            with pytest.raises(TypeError, match="bool"):
                FuzzyMatrix.from_json_dict({"n": 1, "entries": [[flag]]})
        with pytest.raises(ValueError, match='"n" must be an integer'):
            FuzzyMatrix.from_json_dict({"n": 1.0, "entries": [["0.5"]]})
        ints = FuzzyMatrix.from_json_dict({"n": 2, "entries": [[0, 1], ["1/2", 1]]})
        assert ints == FuzzyMatrix.from_rows([["0", "1"], ["0.5", "1"]])

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


# Texts with many repeats and equal values spelled apart, with int and
# Fraction entries and the odd value outside [0, 1] mixed in.
shared_entries = st.sampled_from(
    ["0", "1", "0.5", "1/2", "0.50", " 0.5 ", "5e-1", "0.25", "1/4", "3/4", "0.750"]
    + [0, 1, Fraction(1, 2), Fraction(1, 4)]
    + ["3/2", "-0.5", 2, Fraction(5, 4)]
)



@st.composite
def shared_grids(draw):
    """(n, an n x n nest of shared_entries) for n up to 4."""
    n = draw(st.integers(0, 4))
    return n, draw(st.lists(st.lists(shared_entries, min_size=n, max_size=n), min_size=n, max_size=n))


def _entrywise(n, rows):
    """The matrix built from each entry parsed on its own, or the error it raised."""
    try:
        values = [[parse_value(t) if isinstance(t, str) else Fraction(t) for t in row] for row in rows]
        return FuzzyMatrix(n, values)
    except ValueError as exc:
        return str(exc)


class TestTextsParsedOncePerMatrix:
    @settings(max_examples=300)
    @given(shared_grids())
    def test_agrees_with_entrywise_parse(self, grid):
        n, rows = grid
        try:
            f = FuzzyMatrix(n, rows)
        except ValueError as exc:
            assert str(exc) == _entrywise(n, rows)
            return
        assert f == _entrywise(n, rows)
        assert all(type(v) is Fraction for v in f.values())

    def test_repeated_text_shares_one_value(self):
        f = FuzzyMatrix.parse_text("0.3 0.3 1\n0.3 1 0\n1/2 0.5 0")
        assert f.entry(1, 1) is f.entry(1, 2) is f.entry(2, 1)
        assert f.entry(3, 1) == f.entry(3, 2) and f.entry(3, 1) is not f.entry(3, 2)

    def test_each_distinct_text_parsed_once(self, monkeypatch):
        texts = []

        def counted(text):
            texts.append(text)
            return parse_value(text)

        monkeypatch.setattr(matrices, "parse_value", counted)
        rows = [["0.3", "0.3", "1"], ["0.3", "1", "0"], ["1/2", "0.5", "0"]]
        FuzzyMatrix(3, rows)
        assert sorted(texts) == ["0", "0.3", "0.5", "1", "1/2"]
        FuzzyMatrix.from_json_dict({"n": 3, "entries": rows})  # nothing kept between calls
        assert len(texts) == 10


class TestFaultOrder:
    """Coercion faults come before the shape check, and that before the range
    check, which reports the first value outside [0, 1] in row-major order."""

    def test_unparsable_text_after_value_outside(self):
        for rows in ([["3/2", "0"], ["0", "x"]], [["3/2", "3/2"], ["3/2", "x"]]):
            with pytest.raises(ValueError, match="^not a rational value: 'x'$"):
                FuzzyMatrix(2, rows)
        with pytest.raises(ValueError, match="^not a rational value: 'x'$"):
            FuzzyMatrix.parse_text("2 2\n2 x")

    def test_value_outside_in_a_bad_grid(self):
        with pytest.raises(ValueError, match="^entries do not form an 2x2 grid$"):
            FuzzyMatrix(2, [["3/2", "3/2"], ["3/2"]])
        with pytest.raises(ValueError, match="^entries do not form an 2x2 grid$"):
            FuzzyMatrix.parse_text("2 0\n2 0 2")

    @pytest.mark.parametrize("rows, shown", [
        ([["0", "3/2"], [2, "3/2"]], "3/2"),
        ([["0", 2], ["3/2", "3/2"]], "2"),
        ([["3/2", 2], ["3/2", 2]], "3/2"),
        ([[2, "3/2"], ["3/2", 2]], "2"),
        ([["0", "0"], ["0", Fraction(5, 4)]], "5/4"),
    ])
    def test_first_value_outside_reported(self, rows, shown):
        with pytest.raises(ValueError, match=rf"^membership value {shown} outside \[0, 1\]$"):
            FuzzyMatrix(2, rows)

    @pytest.mark.parametrize("entry, message", [
        (True, "^cannot use bool as a membership value$"),
        (1.0, r"^float entries are not allowed \(got 1\.0\)"),
    ])
    def test_bool_and_float_refused_after_equal_values(self, entry, message):
        # True == 1.0 == 1 == Fraction(1), and all four hash alike
        with pytest.raises(TypeError, match=message):
            FuzzyMatrix(2, [["1", 1], [Fraction(1), entry]])
        with pytest.raises(TypeError, match=message):
            FuzzyMatrix.from_json_dict({"n": 2, "entries": [["1", 1], [1, entry]]})

    def test_str_subclass_entry_parsed(self, monkeypatch):
        class Text(str):
            pass

        texts = []

        def recorded(text):
            texts.append(text)
            return parse_value(text)

        monkeypatch.setattr(matrices, "parse_value", recorded)
        f = FuzzyMatrix(2, [["0.5", Text("0.5")], [Text("1/2"), "0"]])
        assert f.entries == ((Fraction(1, 2),) * 2, (Fraction(1, 2), Fraction(0)))
        assert [type(t) for t in texts].count(Text) == 2
        with pytest.raises(ValueError, match="^not a rational value: 'x'$"):
            FuzzyMatrix(1, [[Text("x")]])


class TestFuzzyAlgebra:
    def test_examples(self):
        a = FuzzyMatrix.from_rows([["0.3"]])
        assert fuzzy_complement(a) == FuzzyMatrix.from_rows([["0.7"]])

    @given(fuzzy_matrices())
    def test_complement_involution(self, f):
        assert fuzzy_complement(fuzzy_complement(f)) == f
