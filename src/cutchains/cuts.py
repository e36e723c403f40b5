"""Level cuts of fuzzy matrices and the equivalence they induce.

Thresholding a fuzzy matrix at every level in (0, 1] produces a strictly
increasing chain of crisp matrices.  Two fuzzy matrices are equivalent exactly
when they realize the same chain, so the chain (with levels discarded) is a
canonical signature for the equivalence class.  Both decision procedures are
implemented: the direct entrywise definition and the cut-chain comparison.
Cuts are stored as int support masks; a `CrispMatrix` is built only for an
alpha cut and for `ChainSignature.cuts`.  A representative is made from its
masks, which its caller's checked signature or chain keeps nested, with no
entry coerced again; classify_corpus re-checks it entrywise as ever.  A
classification's report formats each distinct value once per report: the
classes of one k share their levels.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import Iterable, Iterator, NamedTuple

from .matrices import (
    ONE,
    ZERO,
    CrispMatrix,
    FuzzyMatrix,
    _same_order,
    _Value,
    bits_to_mask,
    format_value,
    mask_to_bits,
    parse_value,
)

__all__ = [
    "ChainSignature",
    "Classification",
    "CutChain",
    "EquivalenceClass",
    "alpha_cut",
    "canonical_representative",
    "classify_corpus",
    "cut_chain",
    "equivalent_cuts",
    "equivalent_direct",
    "k_level",
    "reconstruct",
    "signature",
    "strong_alpha_cut",
]


# Most cells for which cut masks and representatives are built one cell at a
# time, each step an operation on an n^2-bit int, so order 64.  Above it each
# cut is built in time linear in its cells: one bit per cell in a bytearray,
# and one str.find per set bit over the cut's bitstring.  On one order-1448
# 0/1 matrix (2,096,704 cells) the per-cell loops took the CLI's `signature`
# 113 s and `classify` 258 s; the linear paths take them 2.1-2.3 s and
# 2.9-3.0 s (three alternating runs of each, Python 3.11, one process).  At
# the benchmark's orders 4 and 6, and on an order-56 matrix of 3,136 distinct
# values, the per-cell loops are the faster; the tests take them as the oracle
# for the linear paths.
_BIT_LOOP_CELLS = 4096


def _as_level(alpha) -> Fraction:
    if isinstance(alpha, float):
        raise TypeError(f"float cut levels are not allowed (got {alpha!r})")
    return parse_value(alpha) if isinstance(alpha, str) else Fraction(alpha)


def _cut(f: FuzzyMatrix, holds) -> CrispMatrix:
    """Crisp matrix of the cells whose entry satisfies holds, in one row-major scan."""
    bits = "".join("1" if holds(v) else "0" for v in f.values())
    return CrispMatrix(f.order, bits_to_mask(bits))


def alpha_cut(f: FuzzyMatrix, alpha) -> CrispMatrix:
    """Crisp matrix of cells with entry >= alpha, for alpha in (0, 1]."""
    level = _as_level(alpha)
    if not (ZERO < level <= ONE):
        raise ValueError(f"weak cut level must lie in (0, 1], got {level}")
    return _cut(f, lambda v: v >= level)


def strong_alpha_cut(f: FuzzyMatrix, alpha) -> CrispMatrix:
    """Crisp matrix of cells with entry > alpha, for alpha in [0, 1)."""
    level = _as_level(alpha)
    if not (ZERO <= level < ONE):
        raise ValueError(f"strong cut level must lie in [0, 1), got {level}")
    return _cut(f, lambda v: v > level)


class _RankPattern(NamedTuple):
    """Integer keys for f's entries; the ranks of 0 and 1 fix which cells hold them."""

    ranks: tuple[int, ...]  # each entry's dense rank among the distinct values, row-major
    count: int  # number of distinct values
    zero: int  # rank of 0, or -1 where no entry is 0
    one: int  # rank of 1, or -1 where no entry is 1

    @property
    def k(self) -> int:
        """Number of distinct values strictly inside (0, 1); the cut masks number k + 1."""
        return self.count - (self.zero >= 0) - (self.one >= 0)


def _rank_pattern(f: FuzzyMatrix) -> _RankPattern:
    """Rank f's entries among its distinct values, on ints rather than Fractions.

    Entries are deduplicated by their lowest-terms (numerator, denominator)
    pair and ordered by numerator / denominator: int true division rounds
    correctly, so the float order never contradicts the exact one, and values
    that share a float are ordered among themselves by exact comparison.
    """
    pairs = [(v._numerator, v._denominator) for row in f.entries for v in row]
    floats = {p: p[0] / p[1] for p in pairs}
    distinct = sorted(floats, key=floats.__getitem__)
    if len(set(floats.values())) < len(distinct):
        distinct = [
            p
            for _, run in groupby(distinct, key=floats.__getitem__)
            for p in sorted(run, key=lambda p: Fraction(*p))
        ]
    rank = {p: r for r, p in enumerate(distinct)}
    return _RankPattern(
        tuple([rank[p] for p in pairs]), len(distinct), rank.get((0, 1), -1), rank.get((1, 1), -1)
    )


def k_level(f: FuzzyMatrix) -> int:
    """Number of distinct entry values strictly inside (0, 1)."""
    return _rank_pattern(f).k


def _check_masks(order: int, masks: tuple[int, ...]) -> None:
    """At least one int mask over the order's n*n cells, strictly increasing under inclusion."""
    if not masks:
        raise ValueError("a chain of cuts has at least one component")
    for mask in masks:
        if type(mask) is not int or mask < 0 or order < 0 or mask.bit_length() > order * order:
            raise ValueError(f"every cut must be an int mask over the {order}x{order} cells")
    for p, q in zip(masks, masks[1:]):
        if p & q != p or p == q:
            raise ValueError("cuts must be strictly increasing under inclusion")


class CutChain(_Value):
    """A strictly increasing chain of cut masks with strictly decreasing levels.

    The pair (levels[i], masks[i]) records that thresholding at levels[i] yields
    the cut of support masks[i]; reconstructing from the chain inverts that.  The
    empty cut may appear first at level 1, where it adds nothing to reconstruction.
    """

    __slots__ = ("order", "levels", "masks")
    order: int
    levels: tuple[Fraction, ...]
    masks: tuple[int, ...]

    def __init__(self, order: int, levels, masks) -> None:
        levels = tuple(_as_level(a) for a in levels)
        masks = tuple(masks)
        if len(levels) != len(masks):
            raise ValueError("levels and masks must have equal length")
        for a in levels:
            if not 0 < a.numerator <= a.denominator:
                raise ValueError(f"level {a} outside (0, 1]")
        for prev, nxt in zip(levels, levels[1:]):
            if not prev > nxt:
                raise ValueError("levels must be strictly decreasing")
        # strict inclusion among n*n-cell supports also caps the length at n*n + 1
        _check_masks(order, masks)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "masks", masks)

    @property
    def k(self) -> int:
        return len(self.masks) - 1


class ChainSignature(_Value):
    """The cut masks a fuzzy matrix realizes over (0, 1], ascending, levels dropped.

    Structural equality of signatures decides equivalence of the matrices.
    """

    __slots__ = ("order", "masks")
    order: int
    masks: tuple[int, ...]

    def __init__(self, order: int, masks) -> None:
        masks = tuple(masks)
        _check_masks(order, masks)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "masks", masks)

    @property
    def cuts(self) -> tuple[CrispMatrix, ...]:
        """The cuts as crisp matrices, built on each read."""
        return tuple(CrispMatrix(self.order, mask) for mask in self.masks)

    @property
    def k(self) -> int:
        return len(self.masks) - 1

    @property
    def o_rooted(self) -> bool:
        return self.masks[0] == 0

    @property
    def j_rooted(self) -> bool:
        return self.masks[-1] == (1 << self.order * self.order) - 1

    def to_json_dict(self) -> dict:
        m = self.order * self.order
        spec = f"0{m}b"  # as mask_to_bits, with one format spec for all the cuts
        return {
            "n": self.order,
            "k": self.k,
            # order 0 has the one cut, the empty one, which the spec would print as "0"
            "cuts": [format(mask, spec) for mask in self.masks] if m else [""],
            "o_rooted": self.o_rooted,
            "j_rooted": self.j_rooted,
        }


def _cut_masks(order: int, pattern: _RankPattern) -> tuple[int, ...]:
    """The masks of the cuts at the distinct positive values, ascending under inclusion.

    The cut at a value is the union of the cells of every value >= it.  When no
    entry equals 1 the chain starts with the empty cut, which no rank holds.
    """
    m = order * order
    masks = [] if pattern.one >= 0 else [0]
    # 0 is the least value, so the positive values are the ranks above its own
    positive = range(pattern.count - 1, pattern.zero, -1)
    if m <= _BIT_LOOP_CELLS:
        cells = [0] * pattern.count
        bit = 1 << m
        for r in pattern.ranks:
            bit >>= 1
            cells[r] |= bit
        mask = 0
        for r in positive:
            mask |= cells[r]
            masks.append(mask)
        return tuple(masks)
    # cell p is bit 7 - p % 8 of byte p // 8, and the pad bits below cell m-1 are shifted out
    at_rank: list[list[int]] = [[] for _ in range(pattern.count)]
    for p, r in enumerate(pattern.ranks):
        at_rank[r].append(p)
    cut = bytearray((m + 7) // 8)
    pad = len(cut) * 8 - m
    for r in positive:
        for p in at_rank[r]:
            cut[p >> 3] |= 0x80 >> (p & 7)
        masks.append(int.from_bytes(cut, "big") >> pad)
    return tuple(masks)


def cut_chain(f: FuzzyMatrix) -> CutChain:
    """Decompose f into its chain of cuts, keyed by the realized levels.

    The cuts at the distinct positive entry values, ascending under inclusion,
    from one scan of the entries' ranks.  Each level is one of f's own entries.
    When no entry equals 1 the empty cut is realized on (max value, 1] and is
    recorded at the nominal level 1; the all-zero matrix decomposes to that
    single empty cut.
    """
    pattern = _rank_pattern(f)
    value_of = [ZERO] * pattern.count
    for v, r in zip(f.values(), pattern.ranks):
        value_of[r] = v
    levels = [value_of[r] for r in range(pattern.count - 1, pattern.zero, -1)]
    if pattern.one < 0:
        levels.insert(0, ONE)
    return CutChain(f.order, tuple(levels), _cut_masks(f.order, pattern))


def signature(f: FuzzyMatrix) -> ChainSignature:
    """Canonical equivalence-class signature: the cut chain with levels discarded."""
    return ChainSignature(f.order, _cut_masks(f.order, _rank_pattern(f)))


def reconstruct(chain: CutChain) -> FuzzyMatrix:
    """Fuzzy matrix whose entry at each cell is the largest level whose cut holds it."""
    return _reconstruct(chain.order, chain.levels, chain.masks)


def _reconstruct(n: int, levels: Iterable[Fraction], masks: Iterable[int]) -> FuzzyMatrix:
    """Each cell at the highest level whose mask holds it, else 0.  The masks
    are nested, as each caller's CutChain or ChainSignature has checked, so a
    level's fresh cells are mask ^ placed; the entries, ZERO and the levels,
    are exact Fractions in [0, 1], so none is coerced again.  _build_classes
    still re-checks the result entrywise."""
    m = n * n
    values = [ZERO] * m
    placed = 0
    if m <= _BIT_LOOP_CELLS:
        for level, mask in zip(levels, masks):
            fresh = mask ^ placed
            placed = mask
            while fresh:
                low = fresh & -fresh
                values[m - low.bit_length()] = level
                fresh ^= low
    else:
        for level, mask in zip(levels, masks):
            bits = mask_to_bits(mask ^ placed, m)  # cell p is character p
            placed = mask
            p = bits.find("1")
            while p >= 0:
                values[p] = level
                p = bits.find("1", p + 1)
    # n values per row, and () at order 0
    return FuzzyMatrix._of_rows(n, tuple(zip(*[iter(values)] * n)))


def equivalent_direct(a: FuzzyMatrix, b: FuzzyMatrix) -> bool:
    """Entrywise decision: same strict-order pattern and the same 0- and 1-cells.

    Two cells compare alike in both matrices exactly when their dense ranks
    agree, so comparing each cell's rank, and the ranks of 0 and 1, decides the
    pairwise definition in O(m log m).
    """
    _same_order(a, b)
    return _rank_pattern(a) == _rank_pattern(b)


def equivalent_cuts(a: FuzzyMatrix, b: FuzzyMatrix) -> bool:
    """Cut-chain decision: each matrix realizes exactly the other's distinct cuts."""
    _same_order(a, b)
    return signature(a) == signature(b)


def _even_levels(steps: int) -> tuple[Fraction, ...]:
    """The equally spaced levels 1, (steps-1)/steps, ..., 1/steps, falling."""
    return tuple(Fraction(steps - i, steps) for i in range(steps))


def canonical_representative(sig: ChainSignature) -> FuzzyMatrix:
    """Deterministic class representative: cuts at equally spaced levels i/(k+1)."""
    # the signature has checked its masks, and the levels fall by construction
    return _reconstruct(sig.order, _even_levels(sig.k + 1), sig.masks)


class EquivalenceClass(_Value):
    """One class of a corpus: its signature, its representative and the
    corpus indices of its members."""

    __slots__ = ("signature", "representative", "members")
    signature: ChainSignature
    representative: FuzzyMatrix
    members: tuple[int, ...]

    def __init__(
        self, signature: ChainSignature, representative: FuzzyMatrix, members: tuple[int, ...]
    ) -> None:
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "members", members)

    def to_json_dict(self) -> dict:
        return self._json_dict(format_value)

    def _json_dict(self, text) -> dict:
        """to_json_dict(), with each representative entry written by text in
        place of format_value."""
        return {
            "signature": self.signature.to_json_dict(),
            "representative": self.representative._json_dict(text),
            "members": list(self.members),
        }


class Classification(_Value):
    """Partition of a corpus into equivalence classes, keyed by signature."""

    __slots__ = ("order", "classes")
    order: int
    classes: tuple[EquivalenceClass, ...]

    def __init__(self, order: int, classes: tuple[EquivalenceClass, ...]) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "classes", classes)

    def __len__(self) -> int:
        return len(self.classes)

    def to_json_list(self) -> list[dict]:
        return list(self._json_dicts())

    def _json_dicts(self) -> Iterator[dict]:
        """Each class's to_json_dict(), in order, with each distinct value
        formatted once in the call: the classes of one k share their levels."""
        texts: dict[tuple[int, int], str] = {}  # format_value of each value met so far

        def text(v: Fraction) -> str:
            try:
                return texts[v._numerator, v._denominator]
            except KeyError:
                shown = texts[v._numerator, v._denominator] = format_value(v)
                return shown

        for cls in self.classes:
            yield cls._json_dict(text)


def _group_corpus(matrices: Iterable[FuzzyMatrix]) -> tuple[int, dict[_RankPattern, list[int]]]:
    """The corpus's order, and the members' indices keyed by their rank patterns:
    equivalent members share one, so each key is a class.  No cut is built."""
    corpus = list(matrices)
    if not corpus:
        raise ValueError("corpus must be nonempty")
    order = corpus[0].order
    by_pattern: dict[_RankPattern, list[int]] = {}
    for idx, f in enumerate(corpus):
        if f.order != order:
            orders = f"member {idx} has order {f.order}, member 0 has order {order}"
            raise ValueError(f"mixed orders in corpus: {orders}")
        by_pattern.setdefault(_rank_pattern(f), []).append(idx)
    return order, by_pattern


def _build_classes(order: int, by_pattern: dict[_RankPattern, list[int]]) -> Classification:
    """Each class's signature and representative, from the cut masks read once
    off its rank pattern, and the representative re-checked against that pattern."""
    classes = []
    levels: tuple[Fraction, ...] = ()
    keyed = [(_cut_masks(order, p), p, members) for p, members in by_pattern.items()]
    keyed.sort(key=lambda item: (len(item[0]), item[0]))
    for masks, pattern, members in keyed:
        sig = ChainSignature(order, masks)
        # canonical_representative(sig); the classes of one k arrive together and share levels
        if len(levels) != len(masks):
            levels = _even_levels(len(masks))
        rep = _reconstruct(order, levels, masks)
        # every member has this pattern, so one comparison re-checks them all
        if _rank_pattern(rep) != pattern:
            raise RuntimeError(
                f"classification disagreement on corpus index {members[0]}: "
                "the class's cut chain contradicts the entrywise relation"
            )
        classes.append(EquivalenceClass(sig, rep, tuple(members)))
    return Classification(order, tuple(classes))


def classify_corpus(matrices: Iterable[FuzzyMatrix]) -> Classification:
    """Partition same-order matrices into equivalence classes.

    Members are grouped by their rank patterns (the direct entrywise relation),
    and each class's cut masks are read once off its pattern.  The class
    representative, rebuilt from those masks, must have the class's pattern
    again, so the two decision routes cross-validate on every class.  Classes
    come by k, then cut masks (the cut bitstrings' order), and each builds its
    signature and representative once.
    """
    return _build_classes(*_group_corpus(matrices))
