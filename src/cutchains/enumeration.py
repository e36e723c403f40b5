"""Exhaustive generation of supports and strict chains: the ground-truth path.

Supports over m cells are bitmasks in CrispMatrix's bit order (bit m-1-p holds
cell p+1), so numeric order on masks is lexicographic order on the bitstrings.
Chains are found by a serial walk that recurses on the next strictly larger
support, pruning branches that cannot reach the requested length.  A J-rooted
chain of k >= 1 steps is walked as k-1 free steps whose last support leaves at
least one cell out, followed by the full support.  Each job is sized before its
first chain is drawn, by counting's one rule for a per-k job, and refused above
the caller's chain ceiling or WALK_MAX_CELLS cells.  A refused job raises
InfeasibleJobError, which matrices defines and this module re-exports.  One
walk (_walk) streams the chains a stem (a chain less its last free support) at
a time: each chain is the start of its first support and one piece per further
support, and the stem's prefix is joined once.  Where a stem's last support
can end another stem (past the first free step, or the second after the empty
O root), its leaf pieces are listed once, in a memo (_LeafMemo) of at most
LEAF_MEMO_SIZE pieces in all, emptied when full, and one C-level map adds the
prefix to each, so no Python frame runs per chain; every other stem, and one
with more leaves than that memo holds, streams its chains from a generator, so
a listing runs in bounded memory.  enumerate_chains (_chain_tuples) and
chain_lines join the stems' iterables into one stream, of tuples of masks and
of listing lines, each piece " < " and one support's text.  chain_lines formats
each first support once, and keeps its pieces in a memo of at most
LISTING_MEMO_SIZE pieces, but for an O-rooted k = 1 listing, which draws each
piece once; both memos end with the listing.
Two counting walks take the same walk without building the chains (_count_walk
for count_chains, _group_walk for group_by_size_vector): every chain is still
visited, one at a time, and no closed form is used.  They take each chain's
last two free steps in one frame, with each leaf loop inline, so no frame is
made per stem.  The support lattice (HasseDiagram) is computed from m and
written line by line, as DOT or as JSON, its node names made with one format
spec.  Listings and lattice alike read each label from two tables of
half-width cell text and one of size text, each entry made on its first read
(_labeller), so a job builds only the halves it labels.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache, partial
from itertools import chain, repeat
from operator import add
from typing import Callable, Iterable, Iterator, TypeVar

# chain_count_ie stays bound here, where cutbench/run.py wraps it by name
from .counting import _check_root, _count_within, chain_count_ie
from .matrices import InfeasibleJobError, _int_text, _Value, mask_to_bits

__all__ = [
    "ChainRecord",
    "DEFAULT_CHAIN_CEILING",
    "DEFAULT_SUPPORT_CAP",
    "HasseDiagram",
    "InfeasibleJobError",
    "chain_lines",
    "count_chains",
    "enumerate_chains",
    "enumerate_supports",
    "group_by_size_vector",
    "hasse_export",
    "support_label",
]

DEFAULT_SUPPORT_CAP = 16
DEFAULT_CHAIN_CEILING = 10**7

# Most pieces (" < " and a support's text) one chain_lines call keeps: every
# support of up to 12 cells, and an m = 16 labelled listing allocates at most
# 1.3 MiB.  A 2^16 memo raised `enumerate --m 20 --k 1 --root O --list
# --labels` from 17 to 39 MiB peak RSS and was slower, 1.32 against 1.59 s.
LISTING_MEMO_SIZE = 1 << 12

# Most leaf pieces one walk keeps in lists, summed over the stems' last
# supports whose leaves it lists (_LeafMemo): all 6,274 of an m = 8 walk, and
# about half of those at m = 9.  Each list entry refers to a piece the piece
# memo may also hold, or to one ending in the J tail's text.  The first 300,000
# lines of the labelled (16, 3, "J") listing allocate at most 3.0 MiB, against
# 4.5 MiB with 2^14 pieces and 1.8 MiB at one generator step per chain.  With
# 2^12 pieces the labelled (8, 2) listing makes 915 lists of 17,965 pieces,
# where this memo makes 255 of 6,274, and took 10.7 ms against 8.3 ms (11.7 ms
# at one generator step per chain; in process, interleaved medians).
LEAF_MEMO_SIZE = 1 << 13

# Most cells of a walk: each support is an m-bit int, and a listing line holds
# m characters per support.  From m = 14,286 on, every job but a rooted k = 0
# one (a single chain) has more than 10^4300 chains, more than any CLI ceiling,
# so only single chains meet this bound.
WALK_MAX_CELLS = 1 << 20

_T = TypeVar("_T")


def support_label(mask: int, m: int) -> str:
    """Label "A_<size>^{cells}" with 1-based cells; no superscript for empty or full."""
    if m < 0:
        raise ValueError(f"cell count must be nonnegative, got {m}")
    if mask < 0 or mask >> m:
        cells = _int_text(m)
        raise ValueError(
            f"a support over {cells} cells is a mask in 0..2^{cells}-1, got {_int_text(mask)}"
        )
    size = mask.bit_count()
    if size == 0:
        return "A_0"
    if size == m:
        return f"A_{m}"
    cells = [str(p + 1) for p in range(m) if mask >> (m - 1 - p) & 1]
    return f"A_{size}^{{{','.join(cells)}}}"


def _cell_text(table: dict[int, str], mask: int, first: int, width: int) -> str:
    """table[mask], made on its first read: ",c" for each cell c of a mask over
    cells first..first+width-1."""
    text = table.get(mask)
    if text is None:
        text = table[mask] = "".join(
            f",{first + p}" for p in range(width) if mask >> (width - 1 - p) & 1
        )
    return text


def _labeller(m: int, head: str = "") -> Callable[[int], str]:
    """head + support_label(mask, m) for masks over m cells: the cells among
    the first ceil(m/2) and among the last floor(m/2) come from two plain
    dicts of half-width cell text, and the text before them from a third,
    keyed by support size, each entry made on its first read.  So a job holds
    the text of the halves and sizes it labels, at most 2^ceil(m/2) +
    2^floor(m/2) + m - 1 strings, and none for an empty or full support."""
    low = m // 2
    high_cells: dict[int, str] = {}
    low_cells: dict[int, str] = {}
    sizes: dict[int, str] = {}
    low_bits = (1 << low) - 1
    full = (1 << m) - 1
    empty, whole = f"{head}A_0", f"{head}A_{m}"

    def label(mask: int) -> str:
        if mask == 0:
            return empty
        if mask == full:
            return whole
        try:
            size = sizes[mask.bit_count()]
            cells = high_cells[mask >> low] + low_cells[mask & low_bits]
        except KeyError:
            size = sizes.setdefault(mask.bit_count(), f"{head}A_{mask.bit_count()}^{{")
            cells = _cell_text(high_cells, mask >> low, 1, m - low) + _cell_text(
                low_cells, mask & low_bits, m - low + 1, low
            )
        return f"{size}{cells[1:]}}}"

    return label


def enumerate_supports(m: int) -> Iterator[int]:
    """All 2^m support masks in lexicographic bitstring order; m is at most DEFAULT_SUPPORT_CAP."""
    if m < 0:
        raise ValueError(f"cell count must be nonnegative, got {m}")
    if m > DEFAULT_SUPPORT_CAP:
        cells = _int_text(m)
        raise InfeasibleJobError(
            f"{cells} cells means 2^{cells} supports; the cap is {DEFAULT_SUPPORT_CAP}"
        )
    return iter(range(1 << m))


class ChainRecord(_Value):
    """One strict chain: its cell count and component masks, smallest first."""

    __slots__ = ("cell_count", "components")
    cell_count: int
    components: tuple[int, ...]

    def __init__(self, cell_count: int, components: tuple[int, ...]) -> None:
        object.__setattr__(self, "cell_count", cell_count)
        object.__setattr__(self, "components", components)

    @property
    def size_vector(self) -> tuple[int, ...]:
        return tuple(c.bit_count() for c in self.components)

    def bitstrings(self) -> tuple[str, ...]:
        return tuple(mask_to_bits(c, self.cell_count) for c in self.components)


def _check_job(m: int, k: int, root: str | None, ceiling: int) -> None:
    if ceiling < 0:
        # a usage error, not a job refused for its size
        raise ValueError(f"the chain ceiling must be nonnegative, got {ceiling}")
    if root is not None:
        _check_root(root)
    _count_within(m, k, root, ceiling, f"the ceiling {_int_text(ceiling)}")
    if m > WALK_MAX_CELLS and 0 <= k <= m:
        raise InfeasibleJobError(
            f"a chain walk over m={_int_text(m)} cells is above its limit of {WALK_MAX_CELLS} cells"
        )


def _first_supports(m: int, k: int, root: str | None) -> tuple[int, Iterator[int]]:
    """The full support over m cells and the supports a chain of k steps may
    start from, in ascending order: none, and no full support made, when k is
    outside 0..m."""
    if not 0 <= k <= m:
        return 0, iter(())
    full = (1 << m) - 1
    if root == "O":
        firsts: Iterable[int] = (0,)
    elif root == "J" and k == 0:
        firsts = (full,)
    else:
        firsts = range(full + 1)
    return full, (first for first in firsts if m - first.bit_count() >= k)


class _LeafMemo(dict):
    """Each support's leaf pieces, leaves(last), listed on its first lookup and
    kept while the lists hold at most LEAF_MEMO_SIZE pieces in all: the memo is
    emptied when the next list would not fit.  A support with more leaves
    than the whole memo holds is None, so no list is made for a large rest."""

    def __init__(self, leaves: Callable[[int], Iterator], m: int, j_tail: bool) -> None:
        super().__init__()
        self.leaves, self.m, self.j_tail = leaves, m, j_tail
        self.space = LEAF_MEMO_SIZE

    def __missing__(self, last: int) -> list | None:
        count = (1 << (self.m - last.bit_count())) - 1 - self.j_tail
        if count > LEAF_MEMO_SIZE:
            return None
        if count > self.space:
            self.clear()
            self.space = LEAF_MEMO_SIZE
        self.space -= count
        pieces = self[last] = list(self.leaves(last))
        return pieces


def _walk(
    m: int,
    k: int,
    root: str | None,
    start: Callable[[int], _T],
    piece: Callable[[int], _T],
) -> Iterator[Iterable[_T]]:
    """Every chain of k steps, in lexicographic order, as start(first) +
    piece(s1) + ... + piece(sk), one iterable per stem (a chain less its last
    free support): the stem's prefix is joined once, then added to each of its
    leaf pieces by one map, or by a generator where the leaves stream.  A
    J-rooted chain of k >= 1 steps is k-1 free steps, the last leaving a cell
    out, then the full support, whose piece ends each leaf piece."""
    full, firsts = _first_supports(m, k, root)
    j_tail = root == "J" and 0 < k <= m  # an empty job makes no J tail
    free = k - j_tail
    end = piece(full) if j_tail else None

    def chains(prefix: _T, last: int) -> Iterator[_T]:
        # prefix and a piece per nonempty part of the cells last leaves out,
        # but not all of them before a J tail, which fills them
        comp = full & ~last
        x = 0
        if j_tail:
            while (x := (x - comp) & comp) != comp:
                yield prefix + piece(last | x) + end
        else:
            while x := (x - comp) & comp:
                yield prefix + piece(last | x)

    # a stem's last support ends more than one stem only past the first free
    # step, or past the second after the one empty root: only there are its
    # leaf pieces listed, as chains of no support before them
    recur = free >= 2 + (root == "O")
    memo = _LeafMemo(partial(chains, start(0)[:0]), m, j_tail) if recur else None

    def extend(last: int, steps: int, prefix: _T) -> Iterator[Iterable[_T]]:
        comp = full & ~last
        x = 0
        if steps == 2:
            # a stem of all of comp has no leaf; one of a single leaf makes its
            # one chain, and one of none nothing, as a map costs more
            while (x := (x - comp) & comp) != comp:
                nxt = last | x
                pieces = memo[nxt] if recur else None
                if pieces is None:
                    yield chains(prefix + piece(nxt), nxt)
                elif len(pieces) > 1:
                    yield map(add, repeat(prefix + piece(nxt)), pieces)
                elif pieces:
                    yield (prefix + piece(nxt) + pieces[0],)
            return
        # prune: must leave room for the remaining strict steps
        room = steps - 1 + j_tail
        while x := (x - comp) & comp:
            nxt = last | x
            if m - nxt.bit_count() >= room:
                yield from extend(nxt, steps - 1, prefix + piece(nxt))

    if free >= 2:
        for first in firsts:
            yield from extend(first, free, start(first))
    elif free:
        for first in firsts:
            yield chains(start(first), first)
    elif j_tail:
        yield (start(first) + end for first in firsts)
    else:
        yield map(start, firsts)


def _chain_tuples(m: int, k: int, root: str | None) -> Iterator[tuple[int, ...]]:
    """Each chain's component masks, smallest first."""
    return chain.from_iterable(_walk(m, k, root, lambda first: (first,), lambda nxt: (nxt,)))


def _count_walk(m: int, k: int, root: str | None) -> int:
    """The number of chains _walk yields, found by the same walk, the last two
    free components in one frame, without building the chains."""
    full, firsts = _first_supports(m, k, root)
    j_tail = root == "J" and k > 0

    def count(last: int, steps: int) -> int:
        if steps == 0:
            return 1
        comp = full & ~last
        n = x = 0
        if steps == 1:
            stop = comp if j_tail else 0
            while (x := (x - comp) & comp) != stop:
                n += 1
            return n
        if steps == 2:
            # per stem, most counts stay small ints: cached, not made
            if j_tail:
                while x := (x - comp) & comp:
                    rest = comp ^ x
                    y = leaves = 0
                    while (y := (y - rest) & rest) != rest:
                        leaves += 1
                    n += leaves
            else:
                while x := (x - comp) & comp:
                    rest = comp ^ x
                    y = leaves = 0
                    while y := (y - rest) & rest:
                        leaves += 1
                    n += leaves
            return n
        room = steps - 1 + j_tail
        while x := (x - comp) & comp:
            nxt = last | x
            if m - nxt.bit_count() >= room:
                n += count(nxt, steps - 1)
        return n

    return sum(count(first, k - j_tail) for first in firsts)


def _group_walk(m: int, k: int, root: str | None) -> Counter:
    """The chains _walk yields, counted by size vector, found by the same walk
    with the running sizes in place of the components.  A frame of the last
    one or two free steps tallies its leaves by their last one or two sizes."""
    full, firsts = _first_supports(m, k, root)
    j_tail = root == "J" and k > 0
    tail = (m,) * j_tail
    grouped: Counter = Counter()
    width = m + 1

    def walk(last: int, steps: int, sizes: tuple[int, ...]) -> None:
        if steps == 0:
            grouped[sizes + tail] += 1
            return
        comp = full & ~last
        x = 0
        if steps == 1:
            stop = comp if j_tail else 0
            tally = [0] * width
            while (x := (x - comp) & comp) != stop:
                tally[(last | x).bit_count()] += 1
            for size, n in enumerate(tally):
                if n:
                    grouped[sizes + (size,) + tail] += n
            return
        if steps == 2:
            # entry a * width + b counts the leaves of middle size a and leaf size b
            tally = [0] * (width * width)
            while x := (x - comp) & comp:
                nxt = last | x
                rest = comp ^ x
                stop = rest if j_tail else 0
                row = nxt.bit_count() * (width + 1)  # a leaf of size a + |y|
                y = 0
                while (y := (y - rest) & rest) != stop:
                    tally[row + y.bit_count()] += 1
            low = (last.bit_count() + 1) * width  # no middle size is |last| or less
            for i, n in enumerate(tally[low:], low):
                if n:
                    grouped[sizes + divmod(i, width) + tail] += n
            return
        room = steps - 1 + j_tail
        while x := (x - comp) & comp:
            nxt = last | x
            size = nxt.bit_count()
            if m - size >= room:
                walk(nxt, steps - 1, sizes + (size,))

    for first in firsts:
        walk(first, k - j_tail, (first.bit_count(),))
    return grouped


def enumerate_chains(
    m: int,
    k: int,
    root: str | None = None,
    *,
    ceiling: int = DEFAULT_CHAIN_CEILING,
) -> Iterator[ChainRecord]:
    """Every strict chain of k+1 supports exactly once, in lexicographic order."""
    _check_job(m, k, root, ceiling)
    return (ChainRecord(m, t) for t in _chain_tuples(m, k, root))


def count_chains(
    m: int,
    k: int,
    root: str | None = None,
    *,
    ceiling: int = DEFAULT_CHAIN_CEILING,
) -> int:
    """Count chains by visiting every one of them: no closed form is used.

    The walk is the one enumerate_chains takes, without building the chains.
    """
    _check_job(m, k, root, ceiling)
    return _count_walk(m, k, root)


def group_by_size_vector(
    m: int,
    k: int,
    root: str | None = None,
    *,
    ceiling: int = DEFAULT_CHAIN_CEILING,
) -> dict[tuple[int, ...], int]:
    """Chain counts partitioned by size vector, in ascending size-vector order.

    Every chain is visited, as count_chains visits it: no closed form is used.
    """
    _check_job(m, k, root, ceiling)
    return dict(sorted(_group_walk(m, k, root).items()))


def chain_lines(
    m: int,
    k: int,
    root: str | None = None,
    *,
    labeled: bool = False,
    ceiling: int = DEFAULT_CHAIN_CEILING,
) -> Iterator[str]:
    """Chain listing lines, one per chain, in enumeration order: each chain's
    supports as bitstrings (labeled: as support_label text) joined by " < ".
    Each line is its first support's text and one piece, " < " and a
    support's text, per further support, memoised unless no piece can be
    drawn twice (an O-rooted k = 1 listing); each stem's leaf pieces are
    listed once where its last support can end another stem."""
    _check_job(m, k, root, ceiling)
    if not 0 <= k <= m:
        return iter(())  # no chain: no labeller, format spec or piece is made
    if labeled:
        start, text = _labeller(m), _labeller(m, " < ")
    else:
        spec = f"{{:0{m}b}}" if m else ""  # "".format(0) is mask_to_bits(0, 0)
        start, text = spec.format, f" < {spec}".format
    # an O-rooted k = 1 listing draws each piece once, after its one first
    # support, so a memo there would only miss
    if root != "O" or k != 1:
        text = lru_cache(maxsize=LISTING_MEMO_SIZE)(text)
    return chain.from_iterable(_walk(m, k, root, start, text))


class HasseDiagram(_Value):
    """Covering relation of the support lattice, computed from m: edges add exactly one cell."""

    __slots__ = ("cell_count",)
    cell_count: int

    def __init__(self, cell_count: int) -> None:
        enumerate_supports(cell_count)  # refuses a negative m and one above the cap
        object.__setattr__(self, "cell_count", cell_count)

    @property
    def nodes(self) -> range:
        return range(1 << self.cell_count)

    @property
    def _names(self) -> list[str]:
        """Each node's bitstring, as mask_to_bits gives it, from one format spec."""
        spec = f"0{self.cell_count}b"
        return [f"{n:{spec}}" for n in self.nodes] if self.cell_count else [""]

    @property
    def _cell_bits(self) -> list[int]:
        """Each cell's bit, in cell order: bit m-1 is cell 1."""
        return [1 << p for p in reversed(range(self.cell_count))]

    @property
    def edges(self) -> Iterator[tuple[int, int]]:
        """Every cover: nodes ascending, then absent cells in cell order."""
        cells = self._cell_bits
        return ((node, node | bit) for node in self.nodes for bit in cells if not node & bit)

    def dot_lines(self) -> Iterator[str]:
        """The DOT text, one line at a time."""
        bits = self._names
        label = _labeller(self.cell_count)
        cells = self._cell_bits
        yield "digraph support_lattice {\n"
        yield "  rankdir=BT;\n"
        for node in self.nodes:
            yield f'  "{bits[node]}" [label="{label(node)}"];\n'
        for node in self.nodes:
            name = bits[node]
            for bit in cells:
                if not node & bit:
                    yield f'  "{name}" -> "{bits[node | bit]}";\n'
        yield "}\n"

    def to_dot(self) -> str:
        return "".join(self.dot_lines())

    def json_chunks(self) -> Iterator[str]:
        """The text of json.dumps(self.to_json_dict(), indent=2) + "\n", one node at a time."""
        m = self.cell_count
        full = (1 << m) - 1
        names = self._names  # a bitstring needs no JSON escape, so it is quoted in place
        label = _labeller(m)
        yield f'{{\n  "m": {m},\n  "nodes": [\n'
        for node in self.nodes:
            end = "\n" if node == full else ",\n"
            text = json.dumps(label(node))
            yield f'    {{\n      "bits": "{names[node]}",\n      "label": {text}\n    }}{end}'
        yield '  ],\n  "adjacency": {\n'
        cells = self._cell_bits
        for node in self.nodes:
            ups = '",\n      "'.join([names[node | bit] for bit in cells if not node & bit])
            value = f'[\n      "{ups}"\n    ]' if ups else "[]"
            end = "\n" if node == full else ",\n"
            yield f'    "{names[node]}": {value}{end}'
        yield "  }\n}\n"

    def to_json_dict(self) -> dict:
        m = self.cell_count
        bits = self._names
        label = _labeller(m)
        cells = self._cell_bits
        return {
            "m": m,
            "nodes": [{"bits": bits[n], "label": label(n)} for n in self.nodes],
            "adjacency": {
                bits[n]: [bits[n | bit] for bit in cells if not n & bit] for n in self.nodes
            },
        }


def hasse_export(m: int) -> HasseDiagram:
    """Covering-relation graph over all supports of m cells."""
    return HasseDiagram(m)
