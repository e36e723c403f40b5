"""Crisp and fuzzy square matrices with exact rational entries.

A crisp matrix is identified with its support, the set of cells holding a 1,
which it stores as an int bitmask.  A fuzzy matrix holds membership degrees in
[0, 1]; entries are Fractions so that comparisons against 0 and 1, which the
equivalence relation hinges on, are exact.  Floats are rejected outright.
A k-level matrix holds few distinct values over its n^2 cells, so the
constructor parses and range-checks each distinct value text once per matrix,
and the entries that repeat a text share one Fraction.

This module is also the base that every other one shares: it holds the _Value
base of the value classes, the digit bound MAX_DIGITS, and InfeasibleJobError,
the error of a job refused for its size.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterator

__all__ = [
    "CrispMatrix",
    "FuzzyMatrix",
    "InfeasibleJobError",
    "MAX_DIGITS",
    "bits_to_mask",
    "format_value",
    "mask_to_bits",
    "parse_value",
]

ZERO = Fraction(0)
ONE = Fraction(1)


# The most digits of one integer that the CLI reads or prints: `cli.main` pins
# the interpreter's int_max_str_digits to it (CPython's default) for the call,
# whatever the caller set.  The library follows its host interpreter's setting,
# but bounds a decimal exponent by it too, since Fraction expands one in full.
MAX_DIGITS = 4300


# The most characters of an input text that an error message repeats.
_SHOWN_CHARS = 40


def _shown(text: str) -> str:
    """repr(text), or, for a longer text, the repr of its first _SHOWN_CHARS
    characters and the text's length."""
    if len(text) <= _SHOWN_CHARS:
        return repr(text)
    return f"{text[:_SHOWN_CHARS]!r}... ({len(text)} characters)"


def _shown_value(value: Fraction) -> str:
    """str(value), or its sign and size when that would be long."""
    num, den = value.numerator, value.denominator
    if max(abs(num), den).bit_length() <= 128:
        return str(value)
    sign = "-" if num < 0 else ""
    return f"{sign}({abs(num).bit_length()}-bit integer)/({den.bit_length()}-bit integer)"


def parse_value(text: str) -> Fraction:
    """Parse a membership value from a decimal ("0.25") or fraction ("1/4") string."""
    if text.isascii():
        # "d", "d.ddd", ".ddd", "d." or "p/q" in ASCII digits is built from ints,
        # as Fraction builds it but without its regex; each part is one int()
        # under the digit limit.  Every other spelling is left to Fraction below.
        try:
            if text.isdigit():
                return ZERO if text == "0" else ONE if text == "1" else Fraction(int(text))
            head, dot, tail = text.partition(".")
            # either part may be empty, but not both: "." has no digit
            if dot and (head + tail).isdigit():
                scale = 10 ** len(tail)
                return Fraction(int(head or 0) * scale + int(tail or 0), scale)
            head, slash, tail = text.partition("/")
            if slash and head.isdigit() and tail.isdigit():
                return Fraction(int(head), int(tail))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational value: {_shown(text)}") from exc
    if "e" in text or "E" in text:
        try:
            too_large = abs(int(text.lower().partition("e")[2])) > MAX_DIGITS
        except ValueError:
            too_large = False  # malformed: Fraction rejects it below
        if too_large:
            raise ValueError(f"exponent of {_shown(text)} exceeds {MAX_DIGITS} in magnitude")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational value: {_shown(text)}") from exc


def format_value(value: Fraction) -> str:
    """Format a rational so that parse_value(format_value(x)) == x.

    Values with a 2^a * 5^b denominator, a and b at most MAX_DIGITS, print as
    exact decimals ("0.25"); everything else prints as "p/q" in lowest terms.
    """
    if value.denominator == 1:
        return str(value.numerator)
    rest = value.denominator
    twos = fives = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1 or (digits := max(twos, fives)) > MAX_DIGITS:
        return f"{value.numerator}/{value.denominator}"
    sign = "-" if value < 0 else ""
    whole, frac = divmod(abs(value.numerator) * 10**digits // value.denominator, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def _coerce_entry(value) -> Fraction:
    if isinstance(value, str):
        return parse_value(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            f"float entries are not allowed (got {value!r}); use a string or Fraction"
        )
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as a membership value")


def mask_to_bits(mask: int, m: int) -> str:
    """Row-major bitstring of a support mask over m cells."""
    return format(mask, f"0{m}b") if m else ""


def bits_to_mask(bits: str) -> int:
    """Support mask of a row-major bitstring."""
    return int(bits, 2) if bits else 0


class InfeasibleJobError(Exception):
    """Raised when a job's projected size exceeds its ceiling or limit."""


def _int_text(value: int) -> str:
    """An integer as a refusal line states it: in decimal below 2^64, else by
    its bit length, so the line stays short and within the digit limit."""
    bits = value.bit_length()
    return f"{value}" if bits <= 64 else f"<{bits}-bit integer>"


class _Value:
    """Base of the frozen value classes: each subclass lists its fields as
    __slots__ and sets them in its own __init__ with object.__setattr__.

    Two values are equal when they are of one class and their fields are
    equal; the hash, the default repr and pickling and copying (through
    __init__) all read the fields in __slots__ order.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class CrispMatrix(_Value):
    """An order-n 0/1 matrix, stored as the support mask over its n*n cells.

    Bit n*n-1-p holds cell p+1 in row-major order, so numeric order on masks
    is lexicographic order on the row-major bitstrings.
    """

    __slots__ = ("order", "mask")
    order: int
    mask: int

    def __init__(self, order: int, mask: int) -> None:
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        if mask < 0 or mask.bit_length() > order * order:
            raise ValueError(f"mask {mask} outside the {order}x{order} range")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def zeros(cls, order: int) -> "CrispMatrix":
        return cls(order, 0)

    @classmethod
    def ones(cls, order: int) -> "CrispMatrix":
        return cls(order, (1 << order * order) - 1)

    @classmethod
    def from_bits(cls, bits: str) -> "CrispMatrix":
        """Build from a row-major bitstring, e.g. "1001" for order 2."""
        order = isqrt(len(bits))
        if order * order != len(bits):
            raise ValueError(f"bitstring length {len(bits)} is not a square")
        if set(bits) - {"0", "1"}:
            raise ValueError(f"bitstring may contain only 0 and 1, got {bits!r}")
        return cls(order, bits_to_mask(bits))

    @property
    def bits(self) -> str:
        """Row-major bitstring serialization."""
        return mask_to_bits(self.mask, self.order * self.order)

    def issubset(self, other: "CrispMatrix") -> bool:
        _same_order(self, other)
        return self.mask & ~other.mask == 0

    def ispropersubset(self, other: "CrispMatrix") -> bool:
        return self.issubset(other) and self.mask != other.mask

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return f"CrispMatrix({self.order}, {self.bits!r})"


class FuzzyMatrix(_Value):
    """An order-n matrix of exact rational membership degrees in [0, 1]."""

    __slots__ = ("order", "entries")
    order: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, order: int, entries) -> None:
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        parsed = {}  # the value of each distinct str entry, parsed once in this call
        outside = []  # values outside [0, 1], in row-major order of first occurrence

        def coerce(entry) -> Fraction:
            if type(entry) is Fraction:
                value = entry
            elif type(entry) is str:
                if entry in parsed:
                    return parsed[entry]  # range-checked where the text first occurred
                value = parsed[entry] = parse_value(entry)
            else:
                value = _coerce_entry(entry)
            # Fraction's own fields, as its properties are Python calls; the
            # denominator is positive, so v in [0, 1] compares two ints
            if not 0 <= value._numerator <= value._denominator:
                outside.append(value)
            return value

        # a value outside [0, 1] is noted as it is made but raised last, after
        # every entry is coerced and the shape checked
        rows = tuple(tuple(map(coerce, row)) for row in entries)
        if len(rows) != order or any(len(row) != order for row in rows):
            raise ValueError(f"entries do not form an {order}x{order} grid")
        if outside:
            raise ValueError(f"membership value {_shown_value(outside[0])} outside [0, 1]")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _of_rows(cls, order: int, rows: tuple) -> "FuzzyMatrix":
        """The matrix of rows, order tuples of order Fractions in [0, 1], unchecked."""
        f = object.__new__(cls)
        object.__setattr__(f, "order", order)
        object.__setattr__(f, "entries", rows)
        return f

    @classmethod
    def from_rows(cls, rows) -> "FuzzyMatrix":
        """Build from any square nest of strings, ints, or Fractions."""
        rows = tuple(rows)
        return cls(len(rows), rows)

    @classmethod
    def parse_text(cls, text: str) -> "FuzzyMatrix":
        """Parse the plain-text form: n lines of n whitespace-separated values."""
        return cls.from_rows(filter(None, map(str.split, text.splitlines())))

    @classmethod
    def from_json_dict(cls, data) -> "FuzzyMatrix":
        if not isinstance(data, dict) or "n" not in data or "entries" not in data:
            raise ValueError('matrix JSON must be {"n": ..., "entries": [[...], ...]}')
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            shown = _shown(n) if isinstance(n, str) else type(n).__name__
            raise ValueError(f'"n" must be an integer, got {shown}')
        entries = data["entries"]
        if not isinstance(entries, list) or any(not isinstance(r, list) for r in entries):
            raise ValueError('"entries" must be a list of lists of value strings')
        if n != len(entries):  # checked here, so an error never repeats a long "n"
            raise ValueError(f'"n" must equal the number of rows of "entries", {len(entries)}')
        # each entry is coerced as the constructor coerces it, so a float is refused
        return cls(n, entries)

    def to_text(self) -> str:
        return "\n".join(" ".join(format_value(v) for v in row) for row in self.entries)

    def to_json_dict(self) -> dict:
        return self._json_dict(format_value)

    def _json_dict(self, text) -> dict:
        """to_json_dict(), with each entry written by text in place of format_value."""
        return {"n": self.order, "entries": [[text(v) for v in row] for row in self.entries]}

    def entry(self, i: int, j: int) -> Fraction:
        """Entry at 1-based (i, j)."""
        return self.entries[i - 1][j - 1]

    def values(self) -> Iterator[Fraction]:
        """All entries in row-major order."""
        for row in self.entries:
            yield from row

    def __repr__(self) -> str:
        grid = "; ".join(" ".join(format_value(v) for v in row) for row in self.entries)
        return f"FuzzyMatrix({self.order}, [{grid}])"


def _same_order(a, b) -> None:
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")
