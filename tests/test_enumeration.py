import json
import math
import random
import re
import tracemalloc
from collections import Counter
from itertools import islice, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutchains as cc
from cutchains import InfeasibleJobError, enumeration
from cutchains.cli import main
from cutchains.matrices import MAX_DIGITS
from helpers import (
    bits_to_set,
    brute_force_chains,
    brute_force_lines,
    chain_line,
    count_chains_top_down,
    hasse_dot_oracle,
    hasse_edge_oracle,
    hasse_json_oracle,
    record_to_sets,
    size_vector_sums,
    stem_chain_lines,
    stem_chain_tuples,
    stem_count_walk,
    stem_group_walk,
)


class TestSupports:
    def test_counts(self):
        assert len(list(cc.enumerate_supports(4))) == 16
        assert len(list(cc.enumerate_supports(0))) == 1
        assert len(list(cc.enumerate_supports(2))) == 4

    def test_lexicographic_bitstring_order(self):
        bits = [cc.mask_to_bits(s, 3) for s in cc.enumerate_supports(3)]
        assert bits == sorted(bits)
        assert bits[0] == "000" and bits[-1] == "111"

    def test_cap(self):
        with pytest.raises(InfeasibleJobError):
            list(cc.enumerate_supports(17))
        assert len(list(cc.enumerate_supports(16))) == 2**16

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cc.enumerate_supports(-1)

    def test_mask_bits_round_trip(self):
        for mask in range(16):
            assert cc.bits_to_mask(cc.mask_to_bits(mask, 4)) == mask


class TestLabels:
    def test_naming(self):
        assert cc.support_label(0, 4) == "A_0"
        assert cc.support_label(0b1111, 4) == "A_4"
        assert cc.support_label(cc.bits_to_mask("1010"), 4) == "A_2^{1,3}"
        assert cc.support_label(cc.bits_to_mask("0111"), 4) == "A_3^{2,3,4}"
        assert cc.support_label(cc.bits_to_mask("1000"), 4) == "A_1^{1}"

    @pytest.mark.parametrize(
        "mask,m,shown",
        [
            (4, 2, "4"),
            (5, 2, "5"),
            (-1, 3, "-1"),
            (1, 0, "1"),
            (1 << 100, 100, "<101-bit integer>"),
        ],
    )
    def test_mask_outside_its_cells_refused(self, mask, m, shown):
        # the bits of such a mask are not cells: no label is made for them
        message = f"a support over {m} cells is a mask in 0..2^{m}-1, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cc.support_label(mask, m)

    @pytest.mark.parametrize("m", [-1, -5])
    def test_negative_cell_count_refused(self, m):
        # in enumerate_supports' words
        with pytest.raises(ValueError, match=f"cell count must be nonnegative, got {m}$"):
            cc.support_label(0, m)
        with pytest.raises(ValueError, match=f"cell count must be nonnegative, got {m}$"):
            cc.enumerate_supports(m)

    def test_masks_at_the_edge_of_their_cells_labelled(self):
        assert cc.support_label(0, 0) == "A_0"
        assert cc.support_label(3, 2) == "A_2"
        assert cc.support_label(1 << 99, 100) == "A_1^{1}"

    @pytest.mark.parametrize("m", [*range(17), 25, 26, 40, 100])
    def test_labeller_matches_support_label(self, m):
        # every mask up to 12 cells, then each half empty and full and 3000
        # distinct random masks; odd m gives the first half the extra cell
        full = (1 << m) - 1
        if m <= 12:
            masks = list(range(full + 1))
        else:
            low = (1 << m // 2) - 1
            masks = [0, full, low, full ^ low, 1, 1 << (m - 1), full - 1]
            rng, drawn = random.Random(m), set()
            while len(drawn) < 3000:
                drawn.add(rng.getrandbits(m))
            masks += sorted(drawn)
        label = enumeration._labeller(m)
        expected = [cc.support_label(mask, m) for mask in masks]
        # a table entry is made on its first read; the second reads it back
        assert [label(mask) for mask in masks] == expected
        assert [label(mask) for mask in masks] == expected


class TestEnumerateChains:
    @pytest.mark.parametrize(
        "m,k,root,expected",
        [(4, 3, None, 84), (4, 4, None, 24), (4, 1, "O", 15), (4, 1, "J", 15)],
    )
    def test_counts(self, m, k, root, expected):
        assert sum(1 for _ in cc.enumerate_chains(m, k, root)) == expected
        assert cc.count_chains(m, k, root) == expected

    def test_matches_brute_force_exactly(self):
        # set equality catches both duplicates and omissions
        for m in range(5):
            for k in range(m + 1):
                expected = set(brute_force_chains(m, k))
                got = [record_to_sets(r) for r in cc.enumerate_chains(m, k)]
                assert len(got) == len(set(got))
                assert set(got) == expected

    def test_rooted_matches_brute_force(self):
        for m in range(5):
            for k in range(m + 1):
                for root in ("O", "J"):
                    expected = set(brute_force_chains(m, k, root))
                    got = {record_to_sets(r) for r in cc.enumerate_chains(m, k, root)}
                    assert got == expected

    def test_strict_inclusion_along_chains(self):
        for record in cc.enumerate_chains(4, 2):
            sets = record_to_sets(record)
            for a, b in zip(sets, sets[1:]):
                assert a < b

    def test_root_filters(self):
        assert all(
            r.components[0] == 0 for r in cc.enumerate_chains(4, 2, "O")
        )
        assert all(
            r.components[-1] == 0b1111 for r in cc.enumerate_chains(4, 2, "J")
        )

    def test_out_of_range_k_is_empty(self):
        assert list(cc.enumerate_chains(4, 5)) == []
        assert list(cc.enumerate_chains(4, -1)) == []

    def test_lexicographic_output(self):
        listing = [r.bitstrings() for r in cc.enumerate_chains(3, 1)]
        assert listing == sorted(listing)

    def test_triangle_against_both_formulas(self):
        for m in range(5):
            for k in range(m + 1):
                enumerated = cc.count_chains(m, k)
                assert enumerated == cc.chain_count(m, k)
                assert enumerated == cc.chain_count_ie(m, k)

    def test_record_size_vector(self):
        record = next(iter(cc.enumerate_chains(4, 2, "O")))
        assert record.size_vector == (0, 1, 2)

    def test_line_format(self):
        lines = [chain_line(r) for r in cc.enumerate_chains(2, 1)]
        assert lines == ["00 < 01", "00 < 10", "00 < 11", "01 < 11", "10 < 11"]
        # "0001" holds the last row-major cell, so the label superscript is 4
        labeled = chain_line(next(iter(cc.enumerate_chains(4, 1, "O"))), labeled=True)
        assert labeled == "A_0 < A_1^{4}"


def listing_oracle(m, k, root, labeled):
    return [chain_line(r, labeled) for r in cc.enumerate_chains(m, k, root)]


class TestChainLines:
    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("root", [None, "O", "J"])
    def test_matches_records_small(self, root, labeled):
        for m in range(6):
            for k in range(-1, m + 2):
                got = list(cc.chain_lines(m, k, root, labeled=labeled))
                assert got == listing_oracle(m, k, root, labeled)

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("root", [None, "O", "J"])
    def test_matches_brute_force(self, root, labeled):
        # chain_lines and enumerate_chains share one walk; this oracle does not
        for m in range(5):
            for k in range(m + 1):
                got = list(cc.chain_lines(m, k, root, labeled=labeled))
                assert got == brute_force_lines(m, k, root, labeled)

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize(
        "m,k,root", [(13, 0, None), (13, 1, "J"), (14, 0, None), (14, 1, "O")]
    )
    def test_matches_records_past_memo_bound(self, m, k, root, labeled):
        # 8192 or 16384 distinct supports, two or four times what the memo keeps
        assert 2**m > enumeration.LISTING_MEMO_SIZE
        got = list(cc.chain_lines(m, k, root, labeled=labeled))
        assert got == listing_oracle(m, k, root, labeled)

    @pytest.mark.parametrize("labeled", [False, True])
    def test_evicted_supports_formatted_again(self, monkeypatch, labeled):
        # a 3-entry piece memo over 32 supports evicts and re-formats supports
        # all the time, and a leaf memo of 3 pieces lists only the leaves of
        # rests of one or two cells, emptied for nearly every list it makes
        monkeypatch.setattr(enumeration, "LISTING_MEMO_SIZE", 3)
        monkeypatch.setattr(enumeration, "LEAF_MEMO_SIZE", 3)
        for k in (2, 3):
            for root in (None, "O", "J"):
                got = list(cc.chain_lines(5, k, root, labeled=labeled))
                assert got == list(stem_chain_lines(5, k, root, labeled))
                tuples = enumeration._chain_tuples(5, k, root)
                assert list(tuples) == list(stem_chain_tuples(5, k, root))

    @pytest.mark.parametrize("labeled", [False, True])
    def test_memo_only_where_a_piece_can_recur(self, monkeypatch, labeled):
        # an O-rooted k = 1 listing draws each piece once, after the empty
        # support, so it memoises none; a stem's last support ends another
        # stem only past the first free step (a J tail is not free), or past
        # the second after the empty support, and only there are its leaf
        # pieces memoised
        memos = []
        cache = enumeration.lru_cache
        leaf_memo = enumeration._LeafMemo

        def counted(maxsize):
            memos.append(("pieces", maxsize))
            return cache(maxsize=maxsize)

        def counted_leaves(leaves, m, j_tail):
            memos.append(("leaves", m))
            return leaf_memo(leaves, m, j_tail)

        monkeypatch.setattr(enumeration, "lru_cache", counted)
        monkeypatch.setattr(enumeration, "_LeafMemo", counted_leaves)
        pieces, leaves = ("pieces", enumeration.LISTING_MEMO_SIZE), ("leaves", 5)
        for k, root, made in (
            (1, "O", []),
            (0, "O", [pieces]),
            (2, "O", [pieces]),
            (3, "O", [pieces, leaves]),
            (1, "J", [pieces]),
            (2, "J", [pieces]),
            (3, "J", [pieces, leaves]),
            (1, None, [pieces]),
            (2, None, [pieces, leaves]),
            (6, None, []),  # no chain: no memo
        ):
            expected = listing_oracle(5, k, root, labeled)
            memos.clear()
            assert list(cc.chain_lines(5, k, root, labeled=labeled)) == expected
            assert memos == made

    def test_memoised_leaves_drawn_once(self, monkeypatch):
        # with no piece memo, a leaf memo that keeps every list formats the
        # middle support of each stem once, and each leaf piece once per
        # support it follows, where a draw per chain would make 570
        monkeypatch.setattr(enumeration, "lru_cache", lambda maxsize: lambda text: text)
        monkeypatch.setattr(enumeration, "LEAF_MEMO_SIZE", 3**5)
        drawn = []
        labeller = enumeration._labeller

        def counted(m, head=""):
            label = labeller(m, head)
            return (lambda mask: drawn.append(mask) or label(mask)) if head else label

        monkeypatch.setattr(enumeration, "_labeller", counted)
        got = list(cc.chain_lines(5, 2, labeled=True))
        assert got == listing_oracle(5, 2, None, True) and len(got) == 570
        # a first support leaves two cells out, at least, for the two steps,
        # and a middle one at least one for its leaves
        firsts = [a for a in range(32) if a.bit_count() <= 3]
        stems = sum(1 for a in firsts for b in range(31) if a < a | b == b)
        leaves = sum(2 ** (5 - b.bit_count()) - 1 for b in range(1, 31))
        assert len(drawn) == stems + leaves == 180 + 180

    @pytest.mark.parametrize(
        "m,root,line",
        [
            (25, "O", "A_0"),
            (2000, "J", "A_2000"),
            (enumeration.WALK_MAX_CELLS, "O", "A_0"),
            (enumeration.WALK_MAX_CELLS, "J", f"A_{enumeration.WALK_MAX_CELLS}"),
        ],
    )
    def test_single_chain_over_many_cells(self, m, root, line):
        # an empty or full support is labelled without reading a label table,
        # so no table entry is made for one chain, even at the walk's cell bound
        assert list(cc.chain_lines(m, 0, root, labeled=True)) == [line]

    @pytest.mark.parametrize(
        "m,k,root", [(25, 1, "J"), (26, 1, "O"), (26, 2, None), (40, 1, "O")]
    )
    def test_labels_over_many_cells(self, m, k, root):
        # the first 20,000 lines of listings far too long to finish, each line
        # against the support_label text of its chain
        lines = cc.chain_lines(m, k, root, labeled=True, ceiling=10**30)
        records = cc.enumerate_chains(m, k, root, ceiling=10**30)
        expected = [chain_line(r, labeled=True) for r in islice(records, 20000)]
        assert list(islice(lines, 20000)) == expected

    @pytest.mark.parametrize(
        "m,k,root,labeled", [(13, 2, "J", True), (14, 2, None, False), (16, 3, "O", True)]
    )
    def test_two_step_frame_past_memo_bound(self, m, k, root, labeled):
        # the first 50,000 lines draw pieces of more supports than the memo
        # keeps, in the frame of the last two free steps, with and without a J
        # tail, and past a first free step that ends no other stem
        assert 2**m > enumeration.LISTING_MEMO_SIZE
        lines = cc.chain_lines(m, k, root, labeled=labeled, ceiling=10**30)
        expected = stem_chain_lines(m, k, root, labeled)
        assert same_stream(islice(lines, 50000), islice(expected, 50000))

    def test_listing_in_constant_memory(self):
        # k = 0 draws first supports only; the O-rooted k = 1 listing draws
        # 65,535 pieces and memoises none
        for k, root in ((0, None), (1, "O")):
            tracemalloc.start()
            try:
                count = sum(1 for _ in cc.chain_lines(16, k, root, labeled=True))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert count == 2**16 - k
            assert peak < 4 * 2**20

    @pytest.mark.parametrize("m,k,root", [(16, 2, "O"), (16, 3, "O"), (14, 2, None)])
    def test_leaf_memo_in_bounded_memory(self, m, k, root):
        # the first 100,000 lines of (16, 2, "O") stream every stem's leaves;
        # those of (16, 3, "O") and (14, 2) list the leaves of rests of up to
        # 13 cells and stream larger ones.  Pieces and leaf lists alike stay
        # within their memos' bounds.
        lines = cc.chain_lines(m, k, root, labeled=True, ceiling=10**30)
        tracemalloc.start()
        try:
            count = sum(1 for _ in islice(lines, 100_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 100_000
        assert peak < 4 * 2**20


class TestFeasibilityCeiling:
    def test_projected_count_in_message(self):
        with pytest.raises(InfeasibleJobError, match="110"):
            list(cc.enumerate_chains(4, 2, ceiling=10))

    def test_huge_projection_stated_by_magnitude(self):
        # 3^9100 - 2^9100 has 4342 digits, too many for str() at its default limit
        with pytest.raises(InfeasibleJobError, match=r"projected at least 2\^14423 chains") as exc:
            cc.count_chains(9100, 1)
        assert len(str(exc.value)) < 100

    def test_count_and_group_guarded(self):
        with pytest.raises(InfeasibleJobError):
            cc.count_chains(4, 2, ceiling=10)
        with pytest.raises(InfeasibleJobError):
            cc.group_by_size_vector(4, 2, ceiling=10)
        # refused at the call, before the first item is drawn
        with pytest.raises(InfeasibleJobError):
            cc.chain_lines(4, 2, ceiling=10)
        with pytest.raises(InfeasibleJobError, match="50"):
            cc.group_by_size_vector(4, 2, "O", ceiling=10)

    def test_environment_is_not_read(self, monkeypatch):
        monkeypatch.setenv("CUTCHAINS_CHAIN_CEILING", "10")
        assert cc.count_chains(4, 2) == 110
        with pytest.raises(InfeasibleJobError, match="110"):
            cc.count_chains(4, 2, ceiling=10)

    def test_negative_ceiling_is_value_error(self):
        # not a refused job: even an empty job (k > m) is rejected
        with pytest.raises(ValueError, match="nonnegative"):
            cc.count_chains(2, 1, ceiling=-1)
        with pytest.raises(ValueError, match="nonnegative"):
            cc.count_chains(2, 5, ceiling=-1)
        assert cc.count_chains(2, 1, ceiling=5) == 5  # a projection equal to the ceiling runs

    def test_lower_bound_tight_at_k_equal_m(self):
        # m cells entering one per step: exactly m! chains, which the bound k! states
        with pytest.raises(InfeasibleJobError) as exc:
            cc.count_chains(12_000, 12_000)
        bits = int(re.search(r"2\^(\d+)", str(exc.value)).group(1))
        exact = math.factorial(12_000).bit_length() - 1
        assert exact - 1 <= bits <= exact

    def test_lower_bound_never_above_exact(self, monkeypatch, capsys):
        # every job takes the bound; a ceiling of 0 refuses each by it
        monkeypatch.setattr(cc.counting, "_EXACT_PROJECTION_BITS", -1)
        for m in range(0, 200, 3):
            for k in sorted({0, 1, 2, 3, m // 3, m // 2, m - 1, m} & set(range(m + 1))):
                for root in (None, "O", "J"):
                    with pytest.raises(InfeasibleJobError) as exc:
                        cc.count_chains(m, k, root, ceiling=0)
                    bits = int(re.search(r"2\^(\d+)", str(exc.value)).group(1))
                    exact = cc.chain_count_ie(m, k, root).bit_length() - 1
                    assert bits <= exact
                    if k == m:
                        assert bits >= exact - 1
        # `count --k` takes the same rule under the print limit: a job its bound
        # refuses is too long to print, and any other is counted exactly
        served = refused = 0
        for n in (38, 39):
            m = n * n
            for k in (0, 1, 40, m // 2, m):
                for root in (None, "O", "J"):
                    exact = cc.chain_count_ie(m, k, root)
                    rooted = ["--root", root] if root else []
                    code = main(["count", "--n", str(n), "--k", str(k), *rooted])
                    out, err = capsys.readouterr()
                    if code == 0:
                        assert int(out) == exact
                        served += 1
                        continue
                    bits = int(re.search(r"2\^(\d+)", err).group(1))
                    assert code == 3 and exact >= 10**MAX_DIGITS
                    assert bits <= exact.bit_length() - 1
                    refused += 1
        assert served and refused

    @pytest.mark.parametrize(
        "job",
        [
            lambda: cc.count_chains(10**400, 1),
            lambda: cc.group_by_size_vector(10**400, 2),
            lambda: cc.chain_lines(10**400, 1),
            lambda: cc.enumerate_chains(10**400, 10**399, "J"),
            lambda: cc.count_chains(10**400, 0, "O"),  # one chain, over the cell bound
        ],
    )
    def test_job_past_any_float_refused(self, job):
        with pytest.raises(InfeasibleJobError):
            job()

    def test_empty_job_past_the_cell_bound_walks_nothing(self):
        assert cc.count_chains(10**400, 10**401) == 0
        assert cc.group_by_size_vector(10**400, -1, "O") == {}
        assert list(cc.chain_lines(10**400, -1)) == []

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("root", [None, "O", "J"])
    def test_empty_listing_makes_no_piece(self, root, labeled):
        # no J tail, label table or full support of 10^12 cells is built
        assert list(cc.chain_lines(10**12, 10**12 + 1, root, labeled=labeled)) == []
        assert list(cc.chain_lines(10**12, -1, root, labeled=labeled)) == []

    def test_bound_checks_root_first(self):
        with pytest.raises(ValueError, match="root"):
            cc.count_chains(100_000_000, 1, "X")

    def test_large_job_refused_by_default(self):
        # 3^20 - 2^20 chains is far beyond the default ceiling
        with pytest.raises(InfeasibleJobError):
            cc.count_chains(20, 1)

    def test_rooted_job_sized_by_rooted_count(self):
        # the unrooted count 3^12 - 2^12 = 527345 would exceed this ceiling
        assert cc.count_chains(12, 1, "O", ceiling=10_000) == 2**12 - 1
        assert cc.count_chains(12, 1, "J", ceiling=10_000) == 2**12 - 1
        with pytest.raises(InfeasibleJobError, match="4095"):
            cc.count_chains(12, 1, "O", ceiling=4094)

    def test_large_rooted_job_under_default_ceiling(self):
        assert cc.count_chains(20, 1, "O") == 2**20 - 1


class TestGroupBySizeVector:
    def test_five_case_split(self):
        assert cc.group_by_size_vector(4, 3) == {
            (0, 1, 2, 3): 24,
            (0, 1, 2, 4): 12,
            (0, 1, 3, 4): 12,
            (0, 2, 3, 4): 12,
            (1, 2, 3, 4): 24,
        }

    def test_single_maximal_group(self):
        assert cc.group_by_size_vector(4, 4) == {(0, 1, 2, 3, 4): 24}
        assert cc.group_by_size_vector(2, 2) == {(0, 1, 2): 2}

    def test_rooted_groups(self):
        # binomial products and the nested table, sharing no code with the walks
        for m in range(8):
            for k in range(m + 1):
                for root in (None, "O", "J"):
                    groups = cc.group_by_size_vector(m, k, root)
                    for sizes, count in groups.items():
                        assert len(sizes) == k + 1
                        assert count == cc.SizeVector(m, sizes).count_chains()
                        assert root != "O" or sizes[0] == 0
                        assert root != "J" or sizes[-1] == m
                    if root is None:
                        nested = cc.chain_count(m, k)
                    else:
                        nested = cc.chain_count_rooted(m, k, root)
                    assert sum(groups.values()) == nested

    def test_group_sums_match_chain_count(self):
        for m in range(5):
            for k in range(m + 1):
                groups = cc.group_by_size_vector(m, k)
                assert sum(groups.values()) == cc.chain_count(m, k)

    def test_group_count_across_k(self):
        for m in range(5):
            total_groups = sum(len(cc.group_by_size_vector(m, k)) for k in range(m + 1))
            assert total_groups == 2 ** (m + 1) - 1


def tuple_walk(m, k, root):
    """The chains _chain_tuples yields, as the counting walks' oracle."""
    return list(enumeration._chain_tuples(m, k, root))


def same_stream(a, b):
    """Whether two iterables yield equal items in the same order, held one at a time."""
    missing = object()
    return all(x == y for x, y in zip_longest(a, b, fillvalue=missing))


def assert_walks_match_stem_walks(m, k, root):
    assert same_stream(enumeration._chain_tuples(m, k, root), stem_chain_tuples(m, k, root))
    for labeled in (False, True):
        lines = cc.chain_lines(m, k, root, labeled=labeled)
        assert same_stream(lines, stem_chain_lines(m, k, root, labeled))
    assert cc.count_chains(m, k, root) == stem_count_walk(m, k, root)
    groups = stem_group_walk(m, k, root)
    assert cc.group_by_size_vector(m, k, root) == dict(sorted(groups.items()))


class TestStemWalkOracles:
    """The walks take each chain's last two free steps in one frame; the walks
    of one frame per stem they replaced are their oracle: the same chains in the
    same order, the same listing bytes, counts and size-vector groups."""

    @pytest.mark.parametrize("root", [None, "O", "J"])
    @pytest.mark.parametrize("m", range(8))
    def test_every_small_job(self, m, root):
        for k in range(-1, m + 2):
            assert_walks_match_stem_walks(m, k, root)

    @pytest.mark.parametrize("m,k,root", [(8, 2, None), (8, 3, None), (9, 3, "O"), (9, 3, "J")])
    def test_benchmark_jobs(self, m, k, root):
        assert_walks_match_stem_walks(m, k, root)


class TestCountingWalks:
    """count_chains and group_by_size_vector walk without building chains; the
    walk that builds them is their oracle, and the closed forms a second one."""

    @pytest.mark.parametrize("root", [None, "O", "J"])
    @pytest.mark.parametrize("m", range(8))
    def test_match_tuple_walk(self, m, root):
        for k in range(-1, m + 2):
            chains = tuple_walk(m, k, root)
            assert cc.count_chains(m, k, root) == len(chains)
            sizes = Counter(tuple(c.bit_count() for c in chain) for chain in chains)
            assert cc.group_by_size_vector(m, k, root) == dict(sorted(sizes.items()))

    def test_j_rooted_groups_past_small_m(self):
        chains = tuple_walk(9, 3, "J")
        sizes = Counter(tuple(c.bit_count() for c in chain) for chain in chains)
        assert len(chains) == 204_630
        assert cc.group_by_size_vector(9, 3, "J") == dict(sorted(sizes.items()))

    def test_j_rooted_counts_equal_o_rooted(self):
        # complementing each support maps the J-rooted chains onto the O-rooted ones
        for m in range(9):
            for k in range(m + 1):
                assert cc.count_chains(m, k, "J") == cc.count_chains(m, k, "O")

    @pytest.mark.parametrize(
        "m,k,root", [(8, 3, None), (9, 3, "O"), (9, 3, "J"), (12, 1, "O"), (7, 3, None)]
    )
    def test_benchmark_counts(self, m, k, root):
        count = cc.count_chains(m, k, root)
        assert count == cc.chain_count_ie(m, k, root)
        assert count == size_vector_sums(m, root)[k]

    def test_benchmark_groups(self):
        groups = cc.group_by_size_vector(8, 2)
        assert list(groups) == [
            (a, b, c) for a in range(9) for b in range(a + 1, 9) for c in range(b + 1, 9)
        ]
        for sizes, count in groups.items():
            assert count == count_chains_top_down(cc.SizeVector(8, sizes))
        assert sum(groups.values()) == cc.chain_count_ie(8, 2) == size_vector_sums(8)[2]

    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=8).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.integers(min_value=-1, max_value=m + 1),
                st.sampled_from([None, "O", "J"]),
            )
        )
    )
    def test_count_equals_group_total_and_closed_form(self, job):
        m, k, root = job
        total = sum(cc.group_by_size_vector(m, k, root).values())
        assert cc.count_chains(m, k, root) == total == cc.chain_count_ie(m, k, root)


class TestHasse:
    @pytest.mark.parametrize("m,nodes,edges", [(4, 16, 32), (1, 2, 1), (2, 4, 4)])
    def test_counts(self, m, nodes, edges):
        diagram = cc.hasse_export(m)
        assert len(diagram.nodes) == nodes
        assert sum(1 for _ in diagram.edges) == edges

    def test_edges_are_covering_pairs(self):
        diagram = cc.hasse_export(3)
        for a, b in diagram.edges:
            assert a & b == a and a != b
            assert (a ^ b).bit_count() == 1

    def test_edge_count_formula(self):
        for m in range(6):
            expected = m * 2 ** (m - 1) if m else 0
            assert sum(1 for _ in cc.hasse_export(m).edges) == expected

    @pytest.mark.parametrize("m", range(7))
    def test_edges_match_set_oracle(self, m):
        edges = cc.hasse_export(m).edges
        assert [(cc.mask_to_bits(a, m), cc.mask_to_bits(b, m)) for a, b in edges] == (
            hasse_edge_oracle(m)
        )

    def test_determined_by_cell_count(self):
        assert cc.HasseDiagram.__slots__ == ("cell_count",)
        assert not hasattr(cc.HasseDiagram(5), "__dict__")
        assert cc.hasse_export(5) == cc.HasseDiagram(5)
        assert cc.HasseDiagram(5).nodes == range(32)

    def test_dot_output(self):
        dot = cc.hasse_export(2).to_dot()
        assert dot.startswith("digraph support_lattice {")
        assert '"00" [label="A_0"];' in dot
        assert '"00" -> "01";' in dot
        assert dot.endswith("}\n")

    def test_json_output(self):
        data = cc.hasse_export(1).to_json_dict()
        assert data == {
            "m": 1,
            "nodes": [{"bits": "0", "label": "A_0"}, {"bits": "1", "label": "A_1"}],
            "adjacency": {"0": ["1"], "1": []},
        }

    def test_cap(self):
        with pytest.raises(InfeasibleJobError):
            cc.hasse_export(17)
        with pytest.raises(InfeasibleJobError):
            cc.HasseDiagram(17)
        with pytest.raises(ValueError, match="nonnegative"):
            cc.HasseDiagram(-1)

    @pytest.mark.parametrize("m", [*range(7), 11, 12])
    def test_exports_match_per_edge_oracle(self, m):
        diagram = cc.hasse_export(m)
        assert diagram.to_dot() == hasse_dot_oracle(diagram)
        assert diagram.to_json_dict() == hasse_json_oracle(diagram)

    def test_dot_lines_one_line_each(self):
        lines = list(cc.hasse_export(3).dot_lines())
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
        assert "".join(lines) == cc.hasse_export(3).to_dot()
        assert len(lines) == 2 + 8 + 12 + 1

    def test_dot_lines_stream(self):
        # the whole m = 16 text is 21.6 MB; only the 2^16 node names are held
        diagram = cc.hasse_export(16)
        tracemalloc.start()
        try:
            count = sum(1 for _ in diagram.dot_lines())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 2 + 2**16 + 16 * 2**15 + 1
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("m", range(13))
    def test_json_chunks_match_json_dumps(self, m):
        diagram = cc.hasse_export(m)
        text = "".join(diagram.json_chunks())
        assert text == json.dumps(diagram.to_json_dict(), indent=2) + "\n"

    def test_json_chunks_stream(self):
        # the whole m = 16 text is 21.6 MB; only the 2^16 quoted node names are held
        diagram = cc.hasse_export(16)
        tracemalloc.start()
        try:
            count = sum(1 for _ in diagram.json_chunks())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 3 + 2 * 2**16
        assert peak < 8 * 2**20
