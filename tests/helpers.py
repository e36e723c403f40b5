"""Shared test fixtures: independent brute-force oracles and corpus builders.

The oracles here deliberately avoid the package's bitmask/DFS machinery:
supports are frozensets, chains are found by filtering combinations and
equivalence is decided pair of cells by pair of cells, so agreement with the
library is a genuine cross-check.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb

from hypothesis import strategies as st

from cutchains import CrispMatrix, FuzzyMatrix


def brute_force_chains(m, k, root=None):
    """All strict chains of k+1 nested subsets of range(m), as tuples of frozensets."""
    supports = [
        frozenset(c) for size in range(m + 1) for c in combinations(range(m), size)
    ]
    chains = []
    for combo in combinations(supports, k + 1):
        chain = sorted(combo, key=lambda s: (len(s), sorted(s)))
        if not all(a < b for a, b in zip(chain, chain[1:])):
            continue
        if root == "O" and chain[0]:
            continue
        if root == "J" and len(chain[-1]) != m:
            continue
        chains.append(tuple(chain))
    return chains


def size_vector_sums(m, root=None):
    """Per-k sums of the size-vector chain products, by depth-first search.

    Visits every size vector 0 <= s_0 < ... < s_k <= m once and adds the
    product of the step binomials to the total for its k; root "O" keeps only
    vectors starting at 0 and root "J" only vectors ending at m.
    """
    totals = [0] * (m + 1)

    def descend(last, k, prod):
        if root != "J" or last == m:
            totals[k] += prod
        for nxt in range(last + 1, m + 1):
            descend(nxt, k + 1, prod * comb(m - last, nxt - last))

    for first in [0] if root == "O" else range(m + 1):
        descend(first, 0, comb(m, first))
    return totals


def fubini_numbers(max_m):
    """Ordered set partitions of m cells (OEIS A000670) for m = 0..max_m, by the
    recurrence a(m) = sum_{j=1}^{m} C(m, j) a(m - j): choose the first block."""
    a = [1]
    for m in range(1, max_m + 1):
        a.append(sum(comb(m, j) * a[m - j] for j in range(1, m + 1)))
    return a


def equivalent_pairwise(a, b):
    """The equivalence by its definition: the same 0- and 1-cells, and every pair
    of cells compares the same way in both matrices (O(m^2) comparisons)."""
    av = list(a.values())
    bv = list(b.values())
    for x, y in zip(av, bv):
        if (x == 1) != (y == 1) or (x == 0) != (y == 0):
            return False
    for p in range(len(av)):
        for q in range(p + 1, len(av)):
            if (av[p] > av[q]) != (bv[p] > bv[q]) or (av[p] < av[q]) != (bv[p] < bv[q]):
                return False
    return True


def bits_to_set(bits):
    """Cell set (0-based positions) of a bitstring."""
    return frozenset(i for i, ch in enumerate(bits) if ch == "1")


def record_to_sets(record):
    return tuple(bits_to_set(b) for b in record.bitstrings())


def grid_values(t):
    """The grid {0, 1} plus t equally spaced interior points."""
    return [Fraction(i, t + 1) for i in range(t + 2)]


def grid_matrices(n, values):
    """Every order-n matrix with entries drawn from the given values."""
    cells = n * n
    for combo in product(values, repeat=cells):
        rows = tuple(tuple(combo[i * n : (i + 1) * n]) for i in range(n))
        yield FuzzyMatrix(n, rows)


def all_crisp(n):
    """All order-n crisp matrices."""
    return [CrispMatrix.from_bits(format(i, f"0{n * n}b") if n else "") for i in range(2 ** (n * n))]


def random_matrix(rng, n, max_denominator=10):
    def value():
        d = rng.randint(1, max_denominator)
        return Fraction(rng.randint(0, d), d)

    return FuzzyMatrix(n, tuple(tuple(value() for _ in range(n)) for _ in range(n)))


def order_preserving_remap(f):
    """An equivalent matrix: interior values replaced by their rank / (count+1)."""
    interior = sorted({v for v in f.values() if 0 < v < 1})
    mapping = {v: Fraction(i + 1, len(interior) + 1) for i, v in enumerate(interior)}
    mapping[Fraction(0)] = Fraction(0)
    mapping[Fraction(1)] = Fraction(1)
    rows = tuple(tuple(mapping[v] for v in row) for row in f.entries)
    return FuzzyMatrix(f.order, rows)


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=12)


def fuzzy_matrices(max_order=3):
    """Hypothesis strategy for fuzzy matrices of order 0..max_order."""
    return st.integers(min_value=0, max_value=max_order).flatmap(matrix_of_order)


def matrix_of_order(n):
    rows = st.lists(
        st.lists(unit_fractions, min_size=n, max_size=n), min_size=n, max_size=n
    )
    return rows.map(lambda r: FuzzyMatrix(n, tuple(tuple(row) for row in r)))


def matrix_pairs(max_order=3):
    """Same-order pairs of fuzzy matrices."""
    return st.integers(min_value=0, max_value=max_order).flatmap(
        lambda n: st.tuples(matrix_of_order(n), matrix_of_order(n))
    )
