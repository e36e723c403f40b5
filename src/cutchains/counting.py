"""Exact counts of strict chains of supports over m cells.

A chain of length k is a strictly increasing sequence of k+1 subsets of an
m-cell grid; for order-n matrices m = n*n.  Two independent evaluations are
provided and must always agree:

* the nested summation over size vectors (the strictly increasing sequences
  of component cardinalities), evaluated as a table memoised on (cells left,
  steps left) in O(m^3) big-integer operations; one table to N^2 cells
  serves every order n <= N of a table or a sequence, and
* an inclusion-exclusion closed form with O(k) big-integer terms, obtained by
  viewing a chain as a cell -> entry-step assignment and subtracting the
  assignments that collapse a step.  Its value for length k is the k-th
  forward difference of x^m; the product rule for differences sweeps each row
  from the last, so a table to order N costs about N^4 small-by-big
  products.  A total needs no row: the same double sum, regrouped by the base
  of each power, takes m+1 powers and O(m) products, and a sequence carries
  each power from the order before by one product.

The tests keep a plain depth-first search over every size vector as the
oracle for the table at small m.

All arithmetic is exact arbitrary-precision integer arithmetic.  Binomials
come from math.comb, and no table outlives the call that builds it.
"""

from __future__ import annotations

from itertools import combinations, repeat
from math import comb, factorial, isqrt, lgamma, log, log2
from operator import add, mul
from typing import Iterator, Literal

from .matrices import InfeasibleJobError, _int_text, _Value

__all__ = [
    "CountRow",
    "CountTable",
    "SizeVector",
    "binomial",
    "chain_count",
    "chain_count_ie",
    "chain_count_rooted",
    "chain_counts_by_k",
    "count_table",
    "flag_count",
    "sequence",
    "size_vectors",
    "term_count",
    "total_count",
]

Root = Literal["O", "J"]

def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), with C(a, b) = 0 for b < 0 or b > a."""
    if a < 0:
        raise ValueError(f"binomial requires a >= 0, got {a}")
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def _check_root(root: str) -> str:
    if root not in ("O", "J"):
        raise ValueError(f'root must be "O" or "J", got {root!r}')
    return root


def _check_cells(m: int) -> int:
    if m < 0:
        raise ValueError(f"cell count must be nonnegative, got {m}")
    return m


def _check_order(n: int) -> int:
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    return n


class SizeVector(_Value):
    """Strictly increasing component cardinalities 0 <= s_0 < ... < s_k <= m.

    Every chain determines one size vector; the number of chains sharing a
    size vector is a product of binomials, computable from either end.
    """

    __slots__ = ("cell_count", "sizes")
    cell_count: int
    sizes: tuple[int, ...]

    def __init__(self, cell_count: int, sizes) -> None:
        sizes = tuple(sizes)
        _check_cells(cell_count)
        if not sizes:
            raise ValueError("a size vector is nonempty")
        for s in sizes:
            if not (0 <= s <= cell_count):
                raise ValueError(f"size {s} outside [0, {cell_count}]")
        for prev, nxt in zip(sizes, sizes[1:]):
            if not prev < nxt:
                raise ValueError("sizes must be strictly increasing")
        object.__setattr__(self, "cell_count", cell_count)
        object.__setattr__(self, "sizes", sizes)

    @property
    def k(self) -> int:
        return len(self.sizes) - 1

    def count_chains(self) -> int:
        """Chains with these sizes, built bottom-up: pick s_0 cells, then each increment."""
        m = self.cell_count
        total = binomial(m, self.sizes[0])
        for prev, nxt in zip(self.sizes, self.sizes[1:]):
            total *= binomial(m - prev, nxt - prev)
        return total


def size_vectors(m: int, k: int) -> Iterator[SizeVector]:
    """All size vectors of length k+1 over m cells, in lexicographic order."""
    _check_cells(m)
    if k < 0 or k > m:
        return
    for sizes in combinations(range(m + 1), k + 1):
        yield SizeVector(m, sizes)


def _nested_table(m: int, k: int) -> list[list[int]]:
    """The nested summation over size vectors, memoised on (cells left, steps left).

    W[r][j] sums, over every way to take j more strict steps from a component
    that leaves r cells out, the product of the step binomials C(r, d):
    W[r][j] = sum_{d=1}^{r-j+1} C(r, d) * W[r-d][j-1], with W[r][0] = 1.
    This is the depth-first sum with the prefix product factored out, so it
    takes O(m^2 k) big-integer operations instead of one visit per size
    vector.  Each entry is one inner product, in C, of Pascal row r with
    column j-1, kept beside the rows; an entry with j > r is 0, not summed.
    W depends on r alone, so the table to m holds every row r <= m.  W[m][k]
    counts the O-rooted chains of length k, and so the J-rooted ones:
    complementing every support reverses a chain and maps one set onto the
    other.  An unrooted chain of length k starts at the empty support or, with
    the empty support put in front, becomes an O-rooted chain of length k+1:
    there are W[m][k] + W[m][k+1] of them.
    """
    table: list[list[int]] = []
    cols: list[list[int]] = []  # cols[j] = [W[j][j], W[j+1][j], ...], rows so far
    row = [1]  # Pascal row r, advanced by Pascal's rule
    for r in range(m + 1):
        # each later step must add at least one cell, so leave j-1 behind; by
        # C(r, d) = C(r, r-d) the sum runs over the rows i = r-d = j-1..r-1
        w = [1, *(sum(map(mul, row[j - 1 : r], cols[j - 1])) for j in range(1, min(r, k) + 1))]
        if r <= k:
            cols.append([])
        for col, x in zip(cols, w):
            col.append(x)
        table.append(w + [0] * (k + 1 - len(w)))
        row = [1, *map(add, row, row[1:]), 1]
    return table


def _nested_counts(w: list[int], root: Root | None) -> list[int]:
    """Per-k counts over m cells from w = W[m][0..m] of a nested table: w itself
    rooted, and W[m][k] + W[m][k+1] unrooted (see _nested_table)."""
    if root is not None:
        return w
    return list(map(add, w, [*w[1:], 0]))


def chain_count(m: int, k: int) -> int:
    """Number of strict chains of k+1 supports over m cells (nested summation)."""
    _check_cells(m)
    if k < 0 or k > m:
        return 0
    row = _nested_table(m, k + 1)[m]
    return row[k] + row[k + 1]


def chain_count_rooted(m: int, k: int, root: Root) -> int:
    """Chains whose initial term is empty (root "O") or terminal term full ("J")."""
    _check_cells(m)
    _check_root(root)
    if k < 0 or k > m:
        return 0
    return _nested_table(m, k)[m][k]


def chain_counts_by_k(m: int) -> list[int]:
    """All per-k chain counts over m cells from one nested-sum table."""
    _check_cells(m)
    return _nested_counts(_nested_table(m, m)[m], None)


def chain_count_ie(m: int, k: int, root: Root | None = None) -> int:
    """Inclusion-exclusion evaluation of chain_count(m, k) in O(k) terms.

    Weak chains of length k correspond to maps from the m cells into k+2
    slots (the entry step, or "never"); alternating over which of the k
    steps are collapsed leaves exactly the strict chains.  A rooted chain
    fixes its empty first term (or, by complementation, its full last term),
    which removes one slot and gives chain_count_rooted(m, k, root).

    The sum is the k-th forward difference of x^m at x = 2 (x = 1 rooted).
    A table's rows come from one sweep over m (_ie_rows, about N^4
    small-by-big products to order N), and a total over every k from m+1
    powers and O(m) products (_ie_total), not from calls to this per k.
    """
    _check_cells(m)
    if root is not None:
        _check_root(root)
    if k < 0 or k > m:
        return 0
    slots = k + 2 if root is None else k + 1
    total, c = 0, 1  # c = C(k, i), by a running product
    for i in range(k + 1):
        term = c * (slots - i) ** m
        total += -term if i % 2 else term
        c = c * (k - i) // (i + 1)
    return total


# Largest job size, as (k+1) * m * log2(k+2), about the bits of the k+1 powers
# that chain_count_ie multiplies out, whose exact count _count_within computes
# before checking it against its limit: at 10^6 that takes at most about 15 ms,
# and chain_count_ie(3000, 3000), at 10^8, 0.8 s (Python 3.11, one process).  A
# larger job is refused in O(1) when a lower bound on its size exceeds the limit.
_EXACT_PROJECTION_BITS = 10**6

# Most cells whose bounds are evaluated in floats, into which m then converts
# exactly.  Past it, every job but a rooted k = 0 one (one chain) has at least
# 2^(m//2) chains: for k <= m/2, each of the m-k >= m/2 other cells takes one
# of at least 2 slots, and otherwise k! >= (m/2)! >= 2^(m/2).
_FLOAT_CELLS = 2**52


def _ln_chains_at_least(m: int, k: int, root: Root | None) -> float:
    """The natural log of k! * slots^(m-k), a lower bound on chain_count_ie(m, k,
    root) for 0 <= k <= m, in O(1): k fixed cells enter one per step in any
    order, and each other cell takes any of the k+2 slots (k+1 rooted)."""
    slots = k + 2 if root is None else k + 1
    return lgamma(k + 1) + (m - k) * log(slots)


def _count_within(m: int, k: int, root: Root | None, limit: int, limit_text: str) -> int:
    """chain_count_ie(m, k, root) if at most limit, else InfeasibleJobError naming
    limit_text; where that is slow to compute, a lower bound may refuse first."""
    bits = -1
    if 0 <= k <= m and (
        m > _EXACT_PROJECTION_BITS or (k + 1) * m * log2(k + 2) > _EXACT_PROJECTION_BITS
    ):
        if m <= _FLOAT_CELLS:
            # the factor 1 - 1e-12 keeps float error from rounding bits above
            # the exact bit_length() - 1
            bits = int(_ln_chains_at_least(m, k, root) / log(2) * (1 - 1e-12))
        elif root is None or k > 0:
            bits = m // 2
    if bits >= limit.bit_length():
        size = f"at least 2^{_int_text(bits)}"
    else:
        count = chain_count_ie(m, k, root)  # rejects a negative m
        if count <= limit:
            return count
        # past a 64-bit count, the digits make a long line or exceed what str() prints
        bits = count.bit_length()
        size = f"{count}" if bits <= 64 else f"at least 2^{bits - 1}"
    raise InfeasibleJobError(
        f"projected {size} chains for m={_int_text(m)}, k={_int_text(k)} exceeds {limit_text}"
    )


def _check_total_digits(m: int, max_digits: int) -> None:
    """Refuse a total over m cells that may have more than max_digits digits: it
    is at most 4*Fubini(m), and Fubini(m) = sum_j j^m/2^(j+1) < m!/ln(2)^(m+1)."""
    if m > _FLOAT_CELLS:
        # m! < 2^(m*L) with L = m.bit_length(), and 1/ln(2) < 2: below 2^(m*(L+1)+3)
        digits = (m * (m.bit_length() + 1) + 3) // 3 + 1
    else:
        digits = int((log(4) + lgamma(m + 1) - (m + 1) * log(log(2))) / log(10)) + 1
    if digits > max_digits:
        raise InfeasibleJobError(
            f"a count over m={_int_text(m)} cells may have {_int_text(digits)} digits, "
            f"above the limit of {max_digits} for printing an integer"
        )


def _ie_rows(max_m: int, root: Root | None) -> Iterator[list[int]]:
    """[chain_count_ie(m, k, root) for k in range(m + 1)] for m = 0..max_m, in turn.

    Entry k of row m is the k-th forward difference of x^m at x = s, with
    s = 2 unrooted and s = 1 rooted.  The product rule for differences, applied
    to x * x^(m-1), gives g(m, k) = (k+s) g(m-1, k) + k g(m-1, k-1) from
    g(0, 0) = 1, so row m costs 2(m+1) small-by-big products.
    """
    s = 2 if root is None else 1
    row = [1]
    yield row
    for _ in range(max_m):
        row = [(k + s) * a + k * b for k, (a, b) in enumerate(zip([*row, 0], [0, *row]))]
        yield row


def _ie_total(m: int, root: Root | None, powers: list[int] | None = None) -> int:
    """Sum of row m of _ie_rows: the same double sum, regrouped by the base of each power.

    With s = 2 unrooted and s = 1 rooted, the sum over k of the alternating
    sums is the sum over r = 0..m of a(r) * (r+s)^m, where
    a(r) = sum_{k=r}^{m} (-1)^(k-r) C(k, r).  The coefficients follow from
    a(m) = 1 and a(r-1) = 2 a(r) + (-1)^(m-r+1) C(m+1, r), so a total takes
    m+1 powers and O(m) products and holds no row.  powers, if given, is
    [(r+s)^m for r in range(m + 1)]; otherwise each is made and dropped in turn.
    """
    s = 2 if root is None else 1
    if powers is None:
        descending = map(pow, range(m + s, s - 1, -1), repeat(m))
    else:
        descending = reversed(powers)
    total, a, c = 0, 1, 1  # a = a(r), c = C(m+1, r+1), by a running product
    for r, power in zip(range(m, -1, -1), descending):
        total += a * power
        c = c * (r + 1) // (m + 1 - r)
        a = 2 * a - c if (m - r) % 2 == 0 else 2 * a + c
    return total


def _ie_totals(max_n: int, root: Root | None) -> Iterator[int]:
    """_ie_total(n*n, root) for n = 0..max_n from one list of powers, updated in
    place: b^(n*n) is b^((n-1)^2) * b^(2n-1), and only new bases take a pow."""
    s = 2 if root is None else 1
    powers: list[int] = []
    for n in range(max_n + 1):
        m, step = n * n, 2 * n - 1
        for r, power in enumerate(powers):
            powers[r] = power * (r + s) ** step
        powers.extend((r + s) ** m for r in range(len(powers), m + 1))
        yield _ie_total(m, root, powers)


def _pick_method(method: str) -> str:
    """The method "auto" stands for: the closed form, measured faster at every m >= 1."""
    if method == "auto":
        return "ie"
    if method in ("naive", "ie"):
        return method
    raise ValueError(f'method must be "auto", "naive", or "ie", got {method!r}')


def total_count(n: int, root: Root | None = None, *, method: str = "auto") -> int:
    """Number of equivalence classes of order-n fuzzy matrices: all chains over n*n cells.

    With root "O" or "J", only the classes whose chains contain the empty or
    the full support.  Both methods are exact and always agree; "auto"
    evaluates the closed form, which is faster than the nested summation at
    every order, and "naive" stays as its oracle.  The closed form sums the
    inclusion-exclusion double sum regrouped by the base of each power, m+1
    fresh powers and O(m) products for m = n*n, without building the per-k
    row; it is the oracle of sequence's sweep, which carries the powers.
    """
    _check_order(n)
    if root is not None:
        _check_root(root)
    m = n * n
    if _pick_method(method) == "ie":
        return _ie_total(m, root)
    return sum(_nested_counts(_nested_table(m, m)[m], root))


def flag_count(n: int) -> int:
    """Number of maximal chains over n*n cells: one cell enters per step, so (n*n)!."""
    _check_order(n)
    return factorial(n * n)


def term_count(n: int) -> int:
    """Number of size vectors the order-n summation ranges over: 2^(n*n+1) - 1."""
    _check_order(n)
    return 2 ** (n * n + 1) - 1


class CountRow(_Value):
    """The per-k counts of one order n, k = 0..n*n, and their total."""

    __slots__ = ("n", "counts", "total")
    n: int
    counts: tuple[int, ...]
    total: int

    def __init__(self, n: int, counts, total: int) -> None:
        _check_order(n)
        counts = tuple(counts)
        if len(counts) != n * n + 1:
            raise ValueError(f"row for order {n} needs {n * n + 1} counts")
        if total != sum(counts):
            raise ValueError(f"row total {total} != sum of counts {sum(counts)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)


class CountTable(_Value):
    """Per-k counts and totals for orders 0..max_n, optionally root-restricted."""

    __slots__ = ("rows", "root")
    rows: tuple[CountRow, ...]
    root: str | None

    def __init__(self, rows, root: str | None = None) -> None:
        if root is not None:
            _check_root(root)
        rows = tuple(rows)
        for n, row in enumerate(rows):
            if row.n != n:
                raise ValueError(f"row {n} of a count table is for order {row.n}, not {n}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "root", root)

    @property
    def max_n(self) -> int:
        return len(self.rows) - 1


def _table_rows(max_n: int, root: Root | None, method: str) -> Iterator[CountRow]:
    """count_table's rows, made one at a time; an unknown method is refused at once."""
    if _pick_method(method) == "ie":
        rows = (c for m, c in enumerate(_ie_rows(max_n * max_n, root)) if isqrt(m) ** 2 == m)
    else:
        rows = _nested_rows(max_n, root)
    return (CountRow(n, tuple(c), sum(c)) for n, c in enumerate(rows))


def _nested_rows(max_n: int, root: Root | None) -> Iterator[list[int]]:
    """Per-k counts over n*n cells for n = 0..max_n, from one nested table."""
    table = _nested_table(max_n * max_n, max_n * max_n)
    return (_nested_counts(table[n * n][: n * n + 1], root) for n in range(max_n + 1))


def count_table(max_n: int, *, root: Root | None = None, method: str = "auto") -> CountTable:
    """Full table of per-k counts and totals for n = 0..max_n.

    method selects the path as for total_count: the rows at m = n*n of one
    _ie_rows sweep, about max_n^4 small-by-big products, or of one nested
    table.  A lone total (total_count) takes m+1 powers and builds no row.
    This holds every row; the CLI writes each row of _table_rows as it is made.
    """
    _check_order(max_n)
    if root is not None:
        _check_root(root)
    return CountTable(tuple(_table_rows(max_n, root, method)), root)


def sequence(max_n: int, *, method: str = "auto") -> list[tuple[int, int]]:
    """The class-count sequence (n, f_n) for n = 0..max_n, each total_count(n,
    method=method): one _ie_totals sweep, or the rows of one nested table."""
    _check_order(max_n)
    if _pick_method(method) == "ie":
        totals = _ie_totals(max_n, None)
    else:
        totals = map(sum, _nested_rows(max_n, None))
    return list(enumerate(totals))
