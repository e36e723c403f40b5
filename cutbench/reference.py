"""Reference values the benchmark checks the program's outputs against.

Everything here is derived independently of `cutchains`: chain counts come
from Stirling numbers of the second kind (taken from their own recurrence),
size-vector groups from multinomial coefficients, and equivalence classes
from the rank pattern of each matrix.  Nothing in this module imports the
program.

A strict chain of k+1 supports over m cells assigns each cell the step at
which it enters (or "never"); the steps a chain uses form an ordered set
partition.  Counting ordered partitions with an optional empty first block
(cells already in the bottom support) and an optional empty last block
(cells never entering) gives

    f(m, k)        = k! S(m,k) + 2 (k+1)! S(m,k+1) + (k+2)! S(m,k+2)
    f_O(m, k)      = k! S(m,k) + (k+1)! S(m,k+1)        (bottom support empty)
    sum_k f(m, k)  = 4 Fubini(m) - 1                    (OEIS A007047, m >= 1)
    sum_k f_O(m,k) = 2 Fubini(m)                        (OEIS A000629, m >= 1)

J-rooted chains (top support full) are equinumerous with O-rooted ones by
complementation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Iterable, Sequence


class Stirling:
    """Stirling numbers of the second kind S(m, k), kept for the cell counts asked for.

    Rows come from S(m, k) = k S(m-1, k) + S(m-1, k-1); only the rows named
    in `cell_counts` are kept, so large m costs time but little memory.
    """

    def __init__(self, cell_counts: Iterable[int]) -> None:
        keep = set(cell_counts)
        self._rows: dict[int, list[int]] = {}
        row = [1]
        for m in range(max(keep) + 1):
            if m:
                row = [0] + [k * row[k] + row[k - 1] for k in range(1, m)] + [1]
            if m in keep:
                self._rows[m] = row

    def __call__(self, m: int, k: int) -> int:
        row = self._rows[m]
        return row[k] if 0 <= k < len(row) else 0

    def fubini(self, m: int) -> int:
        """Ordered set partitions of m cells (OEIS A000670)."""
        return sum(factorial(k) * self(m, k) for k in range(m + 1))

    def chains_by_k(self, m: int) -> list[int]:
        """Strict chains of k+1 supports over m cells, for k = 0..m."""
        s = self
        return [
            factorial(k) * s(m, k)
            + 2 * factorial(k + 1) * s(m, k + 1)
            + factorial(k + 2) * s(m, k + 2)
            for k in range(m + 1)
        ]

    def rooted_by_k(self, m: int) -> list[int]:
        """Chains whose bottom support is empty (equally: whose top is full)."""
        s = self
        return [factorial(k) * s(m, k) + factorial(k + 1) * s(m, k + 1) for k in range(m + 1)]

    def total(self, m: int) -> int:
        """All strict chains over m cells: 4 Fubini(m) - 1, with 1 for m = 0."""
        return 4 * self.fubini(m) - 1 if m else 1

    def rooted_total(self, m: int) -> int:
        """Rooted chains over m cells: 2 Fubini(m), with 1 for m = 0."""
        return 2 * self.fubini(m) if m else 1


def multinomial(parts: Sequence[int]) -> int:
    value = factorial(sum(parts))
    for p in parts:
        value //= factorial(p)
    return value


def size_vector_groups(m: int, k: int) -> dict[tuple[int, ...], int]:
    """Chains of k+1 supports over m cells, keyed by their size vector.

    Sizes s_0 < ... < s_k split the cells into the bottom support, each
    increment and the cells never entering, so each group is a multinomial.
    """
    groups = {}
    for sizes in combinations(range(m + 1), k + 1):
        parts = [sizes[0]] + [b - a for a, b in zip(sizes, sizes[1:])] + [m - sizes[-1]]
        groups[sizes] = multinomial(parts)
    return groups


def rank_pattern(values: Iterable[Fraction]) -> tuple:
    """The class key of a matrix: each entry's dense rank and whether it is 0 or 1.

    Two matrices of one order are equivalent exactly when these keys match.
    """
    values = list(values)
    rank = {v: r for r, v in enumerate(sorted(set(values)))}
    return tuple((rank[v], v == 0, v == 1) for v in values)


def partition_by_rank_pattern(keys: Sequence[tuple]) -> list[tuple[int, ...]]:
    """Indices grouped by equal key, each group ascending, groups by first index."""
    groups: dict[tuple, list[int]] = {}
    for idx, key in enumerate(keys):
        groups.setdefault(key, []).append(idx)
    return sorted(tuple(g) for g in groups.values())


def signature_cuts(values: Sequence[Fraction]) -> list[str]:
    """Row-major bitstrings of the distinct cuts over (0, 1], smallest first.

    The cut at each distinct positive value holds the cells at or above it;
    when no entry is 1, the empty cut (realised just below 1) comes first.
    """
    levels = sorted({v for v in values if v > 0}, reverse=True)
    cuts = ["".join("1" if v >= level else "0" for v in values) for level in levels]
    if not levels or levels[0] != 1:
        cuts.insert(0, "0" * len(values))
    return cuts
