"""Shared test fixtures: independent brute-force oracles and corpus builders.

The oracles here deliberately avoid the package's bitmask/DFS machinery:
supports are frozensets, chains are found by filtering combinations and
equivalence is decided pair of cells by pair of cells, so agreement with the
library is a genuine cross-check.  The one exception is the stem walks, the
library's enumeration walks as they were with one frame per stem: they pin the
chains, their order and every listing byte of the walks that replaced them.
"""

from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import comb

from hypothesis import strategies as st

from cutchains import CrispMatrix, FuzzyMatrix, format_value, mask_to_bits, support_label
from cutchains.enumeration import _first_supports
from cutchains.matrices import MAX_DIGITS


# The most bytes of the one stderr line of a CLI run on a malformed input file,
# whose error repeats at most a short prefix of any value beside the file's
# path, or of a refused job, whose line states each large integer by its bit
# length.
STDERR_BYTE_BOUND = 1024


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


def brute_force_lines(m, k, root=None, labeled=False):
    """The listing lines of brute_force_chains(m, k, root), each support
    formatted from its cell set, in lexicographic bitstring order."""

    def bits(cells):
        return "".join("1" if p in cells else "0" for p in range(m))

    def label(cells):
        if len(cells) in (0, m):
            return f"A_{len(cells)}"
        return f"A_{len(cells)}^{{{','.join(str(p + 1) for p in sorted(cells))}}}"

    chains = sorted(brute_force_chains(m, k, root), key=lambda chain: tuple(map(bits, chain)))
    text = label if labeled else bits
    return [" < ".join(map(text, chain)) for chain in chains]


def stem_walk(m, k, root, start, step):
    """Every chain of k steps, in lexicographic order, as start(first) grown by
    step(prefix, support) one support at a time, one generator frame per stem
    (a chain less its last free support).  A J-rooted chain of k >= 1 steps is
    k-1 free steps, the last leaving a cell out, then the full support."""
    full, firsts = _first_supports(m, k, root)
    j_tail = root == "J" and k > 0

    def extend(last, steps, prefix):
        if steps == 0:
            yield step(prefix, full) if j_tail else prefix
            return
        comp = full & ~last
        x = 0
        if steps == 1:
            # before a J tail, any nonempty part of comp but comp, which comes last
            stop = comp if j_tail else 0
            while True:
                x = (x - comp) & comp
                if x == stop:
                    return
                leaf = step(prefix, last | x)
                yield step(leaf, full) if j_tail else leaf
        # prune: must leave room for the remaining strict steps
        room = steps - 1 + j_tail
        while True:
            x = (x - comp) & comp
            if x == 0:
                return
            nxt = last | x
            if m - nxt.bit_count() >= room:
                yield from extend(nxt, steps - 1, step(prefix, nxt))

    for first in firsts:
        yield from extend(first, k - j_tail, start(first))


def stem_chain_tuples(m, k, root=None):
    """Each chain's component masks, smallest first, by stem_walk."""
    return stem_walk(m, k, root, lambda first: (first,), lambda prefix, nxt: prefix + (nxt,))


def stem_chain_lines(m, k, root=None, labeled=False):
    """chain_lines(m, k, root, labeled=labeled) by stem_walk, each support
    formatted afresh."""
    text = partial(support_label if labeled else mask_to_bits, m=m)
    return stem_walk(m, k, root, text, lambda line, nxt: f"{line} < {text(nxt)}")


def stem_count_walk(m, k, root=None):
    """The number of chains stem_walk yields, one call per stem."""
    full, firsts = _first_supports(m, k, root)
    j_tail = root == "J" and k > 0

    def count(last, steps):
        if steps == 0:
            return 1
        comp = full & ~last
        n = 0
        x = 0
        if steps == 1:
            stop = comp if j_tail else 0
            while True:
                x = (x - comp) & comp
                if x == stop:
                    return n
                n += 1
        room = steps - 1 + j_tail
        while True:
            x = (x - comp) & comp
            if x == 0:
                return n
            nxt = last | x
            if m - nxt.bit_count() >= room:
                n += count(nxt, steps - 1)

    return sum(count(first, k - j_tail) for first in firsts)


def stem_group_walk(m, k, root=None):
    """The chains stem_walk yields, counted by size vector in a Counter, one
    call per stem, each tallying its leaves by size."""
    full, firsts = _first_supports(m, k, root)
    j_tail = root == "J" and k > 0
    tail = (m,) * j_tail
    grouped = Counter()

    def walk(last, steps, sizes):
        if steps == 0:
            grouped[sizes + tail] += 1
            return
        comp = full & ~last
        x = 0
        if steps == 1:
            stop = comp if j_tail else 0
            tally = [0] * (m + 1)
            while True:
                x = (x - comp) & comp
                if x == stop:
                    break
                tally[(last | x).bit_count()] += 1
            for size, n in enumerate(tally):
                if n:
                    grouped[sizes + (size,) + tail] += n
            return
        room = steps - 1 + j_tail
        while True:
            x = (x - comp) & comp
            if x == 0:
                return
            nxt = last | x
            size = nxt.bit_count()
            if m - size >= room:
                walk(nxt, steps - 1, sizes + (size,))

    for first in firsts:
        walk(first, k - j_tail, (first.bit_count(),))
    return grouped


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


def count_chains_top_down(vec):
    """Chains with a SizeVector's sizes, built top-down: pick s_k cells, then each
    subset; SizeVector.count_chains builds them bottom-up."""
    total = comb(vec.cell_count, vec.sizes[-1])
    for prev, nxt in zip(vec.sizes, vec.sizes[1:]):
        total *= comb(nxt, prev)
    return total


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


def levels_and_cuts_oracle(f):
    """cut_chain's levels (descending) and cuts (ascending), computed on Fractions:
    one mask per distinct positive value and one sort of those values."""
    cells = {}
    bit = 1 << f.order * f.order
    for v in f.values():
        bit >>= 1
        if v:
            cells[v] = cells.get(v, 0) | bit
    levels = sorted(cells, reverse=True)
    cuts = []
    mask = 0
    for v in levels:
        mask |= cells[v]
        cuts.append(CrispMatrix(f.order, mask))
    if not levels or levels[0] != 1:
        levels.insert(0, Fraction(1))
        cuts.insert(0, CrispMatrix.zeros(f.order))
    return tuple(levels), tuple(cuts)


def rank_pattern_oracle(f):
    """Each cell's (dense rank among f's distinct values, == 0, == 1), row-major,
    with the ranks from one sort of the Fractions."""
    values = list(f.values())
    key = {v: (rank, v == 0, v == 1) for rank, v in enumerate(sorted(set(values)))}
    return [key[v] for v in values]


def parse_value_oracle(text):
    """parse_value by Fraction's own parser alone: the exponent bound, then
    Fraction(text.strip()), with every failure a ValueError."""
    if "e" in text or "E" in text:
        try:
            exponent = int(text.lower().partition("e")[2])
        except ValueError:
            exponent = 0
        if abs(exponent) > MAX_DIGITS:
            raise ValueError("exponent out of bounds")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ValueError("zero denominator") from exc


def classification_json_oracle(classification):
    """Classification.to_json_list() built class by class with nothing shared:
    format_value for every representative entry and mask_to_bits for every cut."""
    report = []
    for cls in classification.classes:
        sig, rep = cls.signature, cls.representative
        m = sig.order * sig.order
        signature = {
            "n": sig.order,
            "k": len(sig.masks) - 1,
            "cuts": [mask_to_bits(mask, m) for mask in sig.masks],
            "o_rooted": sig.masks[0] == 0,
            "j_rooted": sig.masks[-1] == (1 << m) - 1,
        }
        entries = [[format_value(v) for v in row] for row in rep.entries]
        representative = {"n": rep.order, "entries": entries}
        report.append(
            {"signature": signature, "representative": representative, "members": list(cls.members)}
        )
    return report


def counted_format_value(monkeypatch):
    """Count format_value's calls by value, wherever the package makes them."""
    calls = Counter()

    def counted(value):
        calls[value] += 1
        return format_value(value)

    monkeypatch.setattr("cutchains.matrices.format_value", counted)
    monkeypatch.setattr("cutchains.cuts.format_value", counted)
    return calls


def check_cuts_oracle(order, masks):
    """The mask check of ChainSignature and CutChain by CrispMatrix's own range
    check and inclusion test, pair by pair, with the library's messages."""
    if not masks:
        raise ValueError("a chain of cuts has at least one component")
    cuts = []
    for mask in masks:
        if isinstance(mask, int) and not isinstance(mask, bool):
            try:
                cuts.append(CrispMatrix(order, mask))
                continue
            except ValueError:
                pass
        raise ValueError(f"every cut must be an int mask over the {order}x{order} cells")
    for prev, nxt in zip(cuts, cuts[1:]):
        if not prev.ispropersubset(nxt):
            raise ValueError("cuts must be strictly increasing under inclusion")


def reconstruct_oracle(order, levels, masks):
    """The rows of the matrix a chain of cuts rebuilds, cell by cell: each cell
    takes the highest level whose cut holds it, else 0."""
    m = order * order
    cuts = [mask_to_bits(mask, m) for mask in masks]
    cells = [
        max((a for a, cut in zip(levels, cuts) if cut[p] == "1"), default=Fraction(0))
        for p in range(m)
    ]
    return [cells[i * order : (i + 1) * order] for i in range(order)]


@st.composite
def cut_tuples(draw, max_order=3):
    """(order, masks): a chain built by adding cells, which may add none (equal
    masks), then kept, shuffled (unnested or falling) or replaced by unrelated
    masks; now and then a mask past the top cell, a negative one or a
    CrispMatrix in a mask's place; possibly no mask at all."""
    order = draw(st.integers(0, max_order))
    full = (1 << order * order) - 1
    masks, mask = [], 0
    for _ in range(draw(st.integers(0, 5))):
        mask |= draw(st.integers(0, full))
        masks.append(mask)
    shape = draw(st.sampled_from(["chain", "shuffled", "unrelated"]))
    if shape == "shuffled":
        masks = draw(st.permutations(masks))
    elif shape == "unrelated":
        masks = [draw(st.integers(0, full)) for _ in masks]
    drawn = []
    for mask in masks:
        kind = draw(st.sampled_from(["mask"] * 10 + ["past the top", "negative", "crisp"]))
        if kind == "past the top":
            mask |= 1 << order * order
        elif kind == "negative":
            mask = -1 - mask
        elif kind == "crisp":
            mask = CrispMatrix(order, mask)
        drawn.append(mask)
    return order, tuple(drawn)


def fuzzy_complement(f):
    """Cellwise 1 - x."""
    return FuzzyMatrix(f.order, tuple(tuple(1 - x for x in row) for row in f.entries))


def shares_a_float(f):
    """Whether two distinct entries of f convert to the same float."""
    distinct = set(f.values())
    return len({float(v) for v in distinct}) < len(distinct)


def bits_to_set(bits):
    """Cell set (0-based positions) of a bitstring."""
    return frozenset(i for i, ch in enumerate(bits) if ch == "1")


def record_to_sets(record):
    return tuple(bits_to_set(b) for b in record.bitstrings())


def chain_line(record, labeled=False):
    """Listing line of a ChainRecord, each support formatted afresh: its
    bitstrings, or labeled its support_label texts, joined by " < "."""
    if labeled:
        parts = (support_label(c, record.cell_count) for c in record.components)
    else:
        parts = record.bitstrings()
    return " < ".join(parts)


def hasse_edge_oracle(m):
    """Covers of the subsets of range(m), as bitstring pairs: nodes in bitstring
    order, then each absent cell in cell order."""

    def bits(cells):
        return "".join("1" if p in cells else "0" for p in range(m))

    subsets = (frozenset(c) for r in range(m + 1) for c in combinations(range(m), r))
    nodes = sorted(subsets, key=bits)
    return [(bits(node), bits(node | {p})) for node in nodes for p in range(m) if p not in node]


def hasse_dot_oracle(diagram):
    """DOT text of a HasseDiagram, formatting both ends of every edge afresh."""
    m = diagram.cell_count
    lines = ["digraph support_lattice {", "  rankdir=BT;"]
    for node in diagram.nodes:
        lines.append(f'  "{mask_to_bits(node, m)}" [label="{support_label(node, m)}"];')
    for a, b in diagram.edges:
        lines.append(f'  "{mask_to_bits(a, m)}" -> "{mask_to_bits(b, m)}";')
    return "\n".join(lines) + "\n}\n"


def hasse_json_oracle(diagram):
    """JSON dict of a HasseDiagram, formatting both ends of every edge afresh."""
    m = diagram.cell_count
    adjacency = {mask_to_bits(n, m): [] for n in diagram.nodes}
    for a, b in diagram.edges:
        adjacency[mask_to_bits(a, m)].append(mask_to_bits(b, m))
    nodes = [{"bits": mask_to_bits(n, m), "label": support_label(n, m)} for n in diagram.nodes]
    return {"m": m, "nodes": nodes, "adjacency": adjacency}


def table_json_oracle(table):
    """JSON dict of a CountTable: its root and max_n, and each row's n, counts and total."""
    rows = [{"n": row.n, "counts": list(row.counts), "total": row.total} for row in table.rows]
    return {"root": table.root, "max_n": table.max_n, "rows": rows}


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


# Values over a 4300-digit denominator, the most digits str() prints by default,
# lie far closer together than floats resolve.
HUGE_DENOMINATOR = 10**4299


def _nudged(base, offset, scale):
    """The multiple of 1/scale just below base, moved by offset steps and kept in [0, 1]."""
    near = Fraction(base.numerator * scale // base.denominator + offset, scale)
    return min(max(near, Fraction(0)), Fraction(1))


@st.composite
def near_pools(draw):
    """A base value (0, 1 or a small fraction), values a few multiples of 10^-20,
    10^-40 or 1/HUGE_DENOMINATOR from it, which mostly share its float, and up
    to two more small fractions."""
    base = draw(st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), unit_fractions))
    scale = draw(st.sampled_from([10**20, 10**40, HUGE_DENOMINATOR]))
    offsets = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3))
    extra = draw(st.lists(unit_fractions, max_size=2))
    return list(dict.fromkeys([base, *(_nudged(base, o, scale) for o in offsets), *extra]))


def _near_matrix(draw, n, pool):
    """An order-n matrix holding as many of the pool's values as it has cells."""
    cells = pool[: n * n]
    rest = n * n - len(cells)
    cells += draw(st.lists(st.sampled_from(pool), min_size=rest, max_size=rest))
    cells = draw(st.permutations(cells))
    return FuzzyMatrix(n, tuple(tuple(cells[i * n : (i + 1) * n]) for i in range(n)))


@st.composite
def near_matrices(draw, max_order=3):
    """Matrices of order 1..max_order whose entries often share a float."""
    n = draw(st.integers(min_value=1, max_value=max_order))
    return _near_matrix(draw, n, draw(near_pools()))


@st.composite
def near_matrix_pairs(draw, max_order=2):
    """Same-order pairs of matrices of order 2..max_order over one pool of
    near-equal values."""
    n = draw(st.integers(min_value=2, max_value=max_order))
    pool = draw(near_pools())
    return _near_matrix(draw, n, pool), _near_matrix(draw, n, pool)


@st.composite
def corpora(draw, max_order=3):
    """Nonempty same-order corpora of plain matrices and matrices whose entries
    often share a float, with order-preserving remaps of some members, so that
    classes often have several members."""
    n = draw(st.integers(min_value=0, max_value=max_order))
    pool = draw(near_pools())
    near = st.composite(lambda draw: _near_matrix(draw, n, pool))()
    corpus = draw(st.lists(st.one_of(matrix_of_order(n), near), min_size=1, max_size=8))
    picks = draw(st.lists(st.sampled_from(corpus), max_size=4))
    return corpus + [order_preserving_remap(f) for f in picks]


# Spellings of a few values, most of them more than once; "0" and "1" make
# all-zero and all-one members, and a member with no 1 has the empty cut.
SPELLINGS = ("0", "1", "0.5", "1/2", "0.50", "2/4", "1/4", "0.25", "0.750", "3/4", "1/3", "2/6")


@st.composite
def spelled_corpora(draw, max_order=3):
    """Nonempty same-order corpora as grids of value texts: matrices over
    SPELLINGS, then the all-zero and the all-one matrix."""
    n = draw(st.integers(min_value=0, max_value=max_order))
    rows = st.lists(st.sampled_from(SPELLINGS), min_size=n, max_size=n)
    grids = draw(st.lists(st.lists(rows, min_size=n, max_size=n), min_size=1, max_size=8))
    return grids + [[[text] * n for _ in range(n)] for text in ("0", "1")]


def matrix_pairs(max_order=3):
    """Same-order pairs of fuzzy matrices."""
    return st.integers(min_value=0, max_value=max_order).flatmap(
        lambda n: st.tuples(matrix_of_order(n), matrix_of_order(n))
    )
