import json
import pickle
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

import cutchains as cc
from cutchains import CrispMatrix, FuzzyMatrix
from cutchains import cuts, enumeration, matrices
from cutchains.matrices import MAX_DIGITS
from helpers import (
    check_cuts_oracle,
    classification_json_oracle,
    corpora,
    counted_format_value,
    cut_tuples,
    equivalent_pairwise,
    fuzzy_complement,
    fuzzy_matrices,
    grid_matrices,
    grid_values,
    levels_and_cuts_oracle,
    matrix_pairs,
    near_matrices,
    near_matrix_pairs,
    order_preserving_remap,
    random_matrix,
    rank_pattern_oracle,
    reconstruct_oracle,
    shares_a_float,
    spelled_corpora,
)

F = Fraction
DATA = Path(__file__).parent / "data"


def M(*rows):
    return FuzzyMatrix.from_rows(rows)


class TestAlphaCuts:
    def test_weak_examples(self):
        f = M(["0.3", "0.7"], ["0.7", "1"])
        assert cc.alpha_cut(f, F(1, 2)).bits == "0111"
        assert cc.alpha_cut(f, 1) == CrispMatrix(2, 0b0001)
        # just above the max entry of a matrix without ones: empty cut
        g = M(["0.3", "0.7"], ["0.7", "0.1"])
        assert cc.alpha_cut(g, F(8, 10)) == CrispMatrix.zeros(2)

    def test_weak_bounds(self):
        f = M(["0.5"])
        with pytest.raises(ValueError):
            cc.alpha_cut(f, 0)
        with pytest.raises(ValueError):
            cc.alpha_cut(f, F(3, 2))

    def test_strong_examples(self):
        f = M(["0.5"])
        assert cc.strong_alpha_cut(f, F(1, 2)) == CrispMatrix.zeros(1)
        assert cc.strong_alpha_cut(f, 0) == CrispMatrix.ones(1)
        g = M(["0", "1"], ["1", "1"])
        assert cc.strong_alpha_cut(g, 0).bits == "0111"
        assert cc.strong_alpha_cut(g, F(1, 2)) == CrispMatrix(2, 0b0111)

    def test_strong_bounds(self):
        f = M(["0.5"])
        with pytest.raises(ValueError):
            cc.strong_alpha_cut(f, 1)
        with pytest.raises(ValueError):
            cc.strong_alpha_cut(f, F(-1, 2))

    def test_float_levels_rejected(self):
        f = M(["0.5"])
        with pytest.raises(TypeError):
            cc.alpha_cut(f, 0.5)
        with pytest.raises(TypeError):
            cc.CutChain(1, (0.1,), (1,))

    def test_level_strings_are_bounded_like_entries(self):
        # a level string parses as an entry does, so its exponent obeys MAX_DIGITS
        f = M(["0.5"])
        limit = rf"exceeds {MAX_DIGITS} in magnitude"
        with pytest.raises(ValueError, match=limit):
            cc.alpha_cut(f, "1e-4301")
        with pytest.raises(ValueError, match=limit):
            cc.strong_alpha_cut(f, "1e-4301")
        with pytest.raises(ValueError, match=limit):
            cc.CutChain(1, ("1e-4301",), (1,))
        for level in ("1/2", "0.5"):
            assert cc.alpha_cut(f, level) == CrispMatrix.ones(1)
            assert cc.strong_alpha_cut(f, level) == CrispMatrix.zeros(1)
            assert cc.CutChain(1, (1, level), (0, 1)).levels == (F(1), F(1, 2))
        with pytest.raises(TypeError):
            cc.strong_alpha_cut(f, 0.5)

    @given(fuzzy_matrices(max_order=2))
    def test_weak_cuts_shrink_as_level_rises(self, f):
        levels = [F(1, 4), F(1, 2), F(3, 4), F(1)]
        cuts = [cc.alpha_cut(f, a) for a in levels]
        for big, small in zip(cuts, cuts[1:]):
            assert small.issubset(big)


class TestSignature:
    def test_examples(self):
        assert [c.bits for c in cc.signature(M(["0.5"])).cuts] == ["0", "1"]
        assert [c.bits for c in cc.signature(M(["1"])).cuts] == ["1"]
        f = M(["0.3", "0.7"], ["0.7", "1"])
        assert [c.bits for c in cc.signature(f).cuts] == ["0001", "0111", "1111"]

    def test_all_zero(self):
        assert [c.bits for c in cc.signature(M(["0", "0"], ["0", "0"])).cuts] == ["0000"]

    def test_order_zero(self):
        sig = cc.signature(FuzzyMatrix(0, ()))
        assert sig.cuts == (CrispMatrix.zeros(0),)
        assert sig.o_rooted and sig.j_rooted
        # the one cut of order 0 is empty, though format(0, "00b") is "0"
        assert cc.ChainSignature(0, (0,)).to_json_dict()["cuts"] == [""]

    def test_k_level_examples(self):
        assert cc.k_level(M(["0", "1"], ["1", "0"])) == 0
        assert cc.k_level(M(["0.5"])) == 1
        assert cc.k_level(M(["0.1", "0.2"], ["0.3", "0.4"])) == 4

    @given(fuzzy_matrices())
    def test_signature_length_is_k_plus_one(self, f):
        assert len(cc.signature(f).cuts) == cc.k_level(f) + 1
        assert cc.k_level(f) <= f.order * f.order

    @given(fuzzy_matrices())
    def test_signature_cuts_strictly_increase(self, f):
        cuts = cc.signature(f).cuts
        for a, b in zip(cuts, cuts[1:]):
            assert a.ispropersubset(b)

    def test_json_shape(self):
        sig = cc.signature(M(["0.5"]))
        assert sig.to_json_dict() == {
            "n": 1,
            "k": 1,
            "cuts": ["0", "1"],
            "o_rooted": True,
            "j_rooted": True,
        }


def roots(f):
    sig = cc.signature(f)
    return sig.o_rooted, sig.j_rooted


class TestRootedness:
    def test_examples(self):
        assert roots(M(["0.5"])) == (True, True)
        assert roots(M(["0", "0"], ["0", "0"])) == (True, False)
        assert roots(M(["1", "0.5"], ["0.5", "0"])) == (False, False)

    @given(fuzzy_matrices())
    def test_rootedness_matches_extreme_entries(self, f):
        values = list(f.values())
        o_rooted, j_rooted = roots(f)
        assert o_rooted == all(v < 1 for v in values)
        assert j_rooted == all(v > 0 for v in values)

    @given(fuzzy_matrices())
    def test_complement_swaps_roots(self, f):
        o_rooted, j_rooted = roots(f)
        assert roots(fuzzy_complement(f)) == (j_rooted, o_rooted)


class TestReconstruct:
    def test_examples(self):
        chain = cc.CutChain(1, (F(1),), (1,))
        assert cc.reconstruct(chain) == M(["1"])
        chain = cc.CutChain(1, (F(1), F(1, 2)), (0, 1))
        assert cc.reconstruct(chain) == M(["0.5"])
        chain = cc.CutChain(2, (F(1), F(1, 2)), (0b0001, 0b0111))
        assert cc.reconstruct(chain) == M(["0", "0.5"], ["0.5", "1"])

    @given(fuzzy_matrices())
    def test_round_trip(self, f):
        assert cc.reconstruct(cc.cut_chain(f)) == f

    def test_chain_validation(self):
        with pytest.raises(ValueError, match="^levels must be strictly decreasing$"):
            cc.CutChain(1, (F(1, 2), F(1)), (0, 1))
        with pytest.raises(ValueError, match="^cuts must be strictly increasing under inclusion$"):
            cc.CutChain(1, (F(1), F(1, 2)), (1, 0))
        with pytest.raises(ValueError, match=r"^level 0 outside \(0, 1\]$"):
            cc.CutChain(1, (F(1), F(0)), (0, 1))  # level 0 is never realized
        with pytest.raises(ValueError, match="^levels and masks must have equal length$"):
            cc.CutChain(1, (F(1),), (0, 1))
        with pytest.raises(ValueError, match="^a chain of cuts has at least one component$"):
            cc.CutChain(1, (), ())
        with pytest.raises(ValueError, match="^every cut must be an int mask over the 1x1 cells$"):
            cc.CutChain(1, (F(1),), (CrispMatrix.ones(1),))  # a cut, not its mask

    def test_level_range_message(self):
        with pytest.raises(ValueError, match=r"^level 0 outside \(0, 1\]$"):
            cc.CutChain(1, (F(1), F(0)), (0, 1))
        with pytest.raises(ValueError, match=r"^level 3/2 outside \(0, 1\]$"):
            cc.CutChain(1, ("3/2",), (1,))
        assert cc.CutChain(1, (1, "1/2"), (0, 1)).levels == (F(1), F(1, 2))

    def test_cut_orders_must_match_chain_order(self):
        # a mask outside the order's n*n cells: past the top cell or negative,
        # and no mask fits a negative order
        for order, mask in [(2, 1 << 4), (1, 2), (2, -1), (-1, 0)]:
            message = rf"^every cut must be an int mask over the {order}x{order} cells$"
            with pytest.raises(ValueError, match=message):
                cc.CutChain(order, (F(1),), (mask,))
            with pytest.raises(ValueError, match=message):
                cc.ChainSignature(order, (mask,))


def _refusal(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


class TestCutChecks:
    """ChainSignature and CutChain check cut masks as ints; CrispMatrix's own
    range check, then CrispMatrix.ispropersubset pair by pair, is the oracle."""

    @settings(max_examples=300)
    @given(cut_tuples())
    @example((2, ()))
    @example((1, (0, 0)))  # equal
    @example((2, (0b0011, 0b0101)))  # unnested
    @example((2, (0b0111, 0b0011)))  # falling
    @example((2, (0, 1 << 4)))  # past the top cell
    @example((2, (-1, 0b1111)))  # negative
    @example((2, (0, CrispMatrix(2, 1))))  # a cut, not its mask
    @example((1, (False, True)))  # bools are not masks
    @example((-1, (0,)))  # no order below 0
    @example((2, (0, 1, 0b1111)))
    def test_agree_with_pairwise_inclusion(self, case):
        order, masks = case
        expected = _refusal(lambda: check_cuts_oracle(order, masks))
        assert _refusal(lambda: cc.ChainSignature(order, masks)) == expected
        levels = tuple(F(len(masks) - i, len(masks)) for i in range(len(masks)))
        assert _refusal(lambda: cc.CutChain(order, levels, masks)) == expected


class TestEquivalence:
    def test_direct_examples(self):
        assert cc.equivalent_direct(
            M(["0.3", "0.7"], ["0.7", "1"]), M(["0.1", "0.5"], ["0.5", "1"])
        )
        assert not cc.equivalent_direct(M(["1"]), M(["0.9"]))
        assert not cc.equivalent_direct(M(["0"]), M(["0.1"]))

    def test_cuts_examples(self):
        assert cc.equivalent_cuts(
            M(["0.3", "0.7"], ["0.7", "1"]), M(["0.1", "0.5"], ["0.5", "1"])
        )
        assert not cc.equivalent_cuts(M(["1"]), M(["0.9"]))
        assert not cc.equivalent_cuts(M(["0"]), M(["0.1"]))
        assert cc.equivalent_cuts(M(["0.5"]), M(["0.7"]))
        assert not cc.equivalent_cuts(M(["0.5"]), M(["0"]))

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            cc.equivalent_direct(M(["0.5"]), FuzzyMatrix(0, ()))
        with pytest.raises(ValueError):
            cc.equivalent_cuts(M(["0.5"]), FuzzyMatrix(0, ()))

    def test_crisp_entries_reduce_to_equality(self):
        mats = list(grid_matrices(2, grid_values(0)))
        for a in mats:
            for b in mats:
                assert cc.equivalent_direct(a, b) == equivalent_pairwise(a, b) == (a == b)

    @pytest.mark.parametrize("n,t", [(1, 0), (1, 1), (1, 2), (2, 1)])
    def test_procedures_agree_exhaustively(self, n, t):
        mats = list(grid_matrices(n, grid_values(t)))
        sigs = [cc.signature(f) for f in mats]
        for i, a in enumerate(mats):
            for j in range(i, len(mats)):
                direct = cc.equivalent_direct(a, mats[j])
                assert direct == equivalent_pairwise(a, mats[j]) == (sigs[i] == sigs[j])

    def test_procedures_agree_on_grid_sample(self):
        # order 2 over a 4-value grid: sampled pairs from all 256 matrices
        mats = list(grid_matrices(2, grid_values(2)))
        rng = random.Random(7)
        for _ in range(4000):
            a, b = rng.choice(mats), rng.choice(mats)
            assert cc.equivalent_direct(a, b) == cc.equivalent_cuts(a, b)

    @given(matrix_pairs())
    def test_procedures_agree_random(self, pair):
        a, b = pair
        direct = cc.equivalent_direct(a, b)
        assert direct == equivalent_pairwise(a, b) == cc.equivalent_cuts(a, b)

    @given(fuzzy_matrices())
    def test_reflexive_and_remap_invariant(self, f):
        assert cc.equivalent_direct(f, f)
        g = order_preserving_remap(f)
        assert cc.equivalent_direct(f, g)
        assert cc.equivalent_cuts(f, g)

    def test_symmetric_and_transitive_on_sampled_triples(self):
        mats = list(grid_matrices(2, grid_values(1)))
        rng = random.Random(11)
        for _ in range(2000):
            a, b, c = (rng.choice(mats) for _ in range(3))
            assert cc.equivalent_direct(a, b) == cc.equivalent_direct(b, a)
            if cc.equivalent_direct(a, b) and cc.equivalent_direct(b, c):
                assert cc.equivalent_direct(a, c)


class TestClassification:
    def test_corpus_examples(self):
        assert len(cc.classify_corpus(grid_matrices(1, grid_values(1)))) == 3
        assert len(cc.classify_corpus(grid_matrices(2, grid_values(0)))) == 16

    @pytest.mark.parametrize(
        "n,t",
        [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4)],
    )
    def test_grid_completeness(self, n, t):
        m = n * n
        expected = sum(cc.chain_count(m, k) for k in range(min(t, m) + 1))
        result = cc.classify_corpus(grid_matrices(n, grid_values(t)))
        assert len(result) == expected

    def test_members_and_representatives(self):
        corpus = [M(["0.5"]), M(["1"]), M(["0.7"]), M(["0"])]
        result = cc.classify_corpus(corpus)
        assert len(result) == 3
        by_members = {klass.members for klass in result.classes}
        assert by_members == {(0, 2), (1,), (3,)}
        for klass in result.classes:
            assert cc.signature(klass.representative) == klass.signature
            for idx in klass.members:
                assert cc.equivalent_direct(corpus[idx], klass.representative)

    def test_representative_is_canonical(self):
        # the class of [[0.5]] has representative [[1/2]] by equal spacing
        rep = cc.canonical_representative(cc.signature(M(["0.7"])))
        assert rep == M(["1/2"])

    def test_classes_sorted_deterministically(self):
        result = cc.classify_corpus(grid_matrices(2, grid_values(1)))
        keys = [(k.signature.k, tuple(c.bits for c in k.signature.cuts)) for k in result.classes]
        assert keys == sorted(keys)

    def test_every_member_is_rechecked(self, monkeypatch):
        # cut masks that lump [[1]] in with [[0.5]]: only the re-check can see it
        shared = cuts._cut_masks(1, cuts._rank_pattern(M(["0.5"])))
        monkeypatch.setattr(cuts, "_cut_masks", lambda order, pattern: shared)
        with pytest.raises(RuntimeError, match="classification disagreement on corpus index 1"):
            cc.classify_corpus([M(["0.5"]), M(["1"])])

    @given(corpora())
    def test_agrees_with_per_matrix_routes(self, corpus):
        result = cc.classify_corpus(corpus)
        keys = [(k.signature.k, tuple(c.mask for c in k.signature.cuts)) for k in result.classes]
        assert keys == sorted(set(keys))
        members = [idx for klass in result.classes for idx in klass.members]
        assert sorted(members) == list(range(len(corpus)))
        class_of = {}
        for number, klass in enumerate(result.classes):
            assert list(klass.members) == sorted(klass.members)
            assert klass.representative == cc.canonical_representative(klass.signature)
            for idx in klass.members:
                assert cc.signature(corpus[idx]) == klass.signature
                class_of[idx] = number
        for i, a in enumerate(corpus):
            for j in range(i):
                assert cc.equivalent_direct(a, corpus[j]) == (class_of[i] == class_of[j])

    def test_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError):
            cc.classify_corpus([])
        with pytest.raises(ValueError):
            cc.classify_corpus([M(["0.5"]), FuzzyMatrix(0, ())])

    def test_report_shape(self):
        report = cc.classify_corpus([M(["0.5"]), M(["0.7"])]).to_json_list()
        assert report == [
            {
                "signature": {
                    "n": 1,
                    "k": 1,
                    "cuts": ["0", "1"],
                    "o_rooted": True,
                    "j_rooted": True,
                },
                "representative": {"n": 1, "entries": [["0.5"]]},
                "members": [0, 1],
            }
        ]


class TestReportText:
    """to_json_list writes what format_value per entry and mask_to_bits per cut
    write, and formats each distinct value once per call."""

    spelled = spelled_corpora().map(lambda grids: [FuzzyMatrix.from_rows(g) for g in grids])

    @given(st.one_of(corpora(), spelled))
    def test_report_matches_per_entry_oracle(self, corpus):
        result = cc.classify_corpus(corpus)
        want = json.dumps(classification_json_oracle(result), indent=2)
        assert json.dumps(result.to_json_list(), indent=2) == want
        assert json.dumps([cls.to_json_dict() for cls in result.classes], indent=2) == want

    def test_each_distinct_value_formatted_once_per_call(self, monkeypatch):
        corpus = [
            M(["0.5", "1/2"], ["0.50", "0"]),  # one value in three spellings
            M(["0.2", "0.4"], ["0.6", "0.8"]),
            M(["0.8", "0.6"], ["0.4", "0.2"]),  # another class of the same k
            M(["0", "0"], ["0", "0"]),
            M(["1", "1"], ["1", "1"]),
            M(["1/3", "0.6"], ["0", "1"]),
        ]
        result = cc.classify_corpus(corpus)
        distinct = {v for cls in result.classes for v in cls.representative.values()}
        entries = sum(len(list(cls.representative.values())) for cls in result.classes)
        assert (len(result), len(distinct), entries) == (6, 9, 24)
        calls = counted_format_value(monkeypatch)
        report = result.to_json_list()
        assert dict(calls) == dict.fromkeys(distinct, 1)
        # nothing is kept between calls: a second report formats every value again
        assert result.to_json_list() == report
        assert dict(calls) == dict.fromkeys(distinct, 2)
        # the CLI's writer, too, formats each distinct value once per call
        calls.clear()
        assert "".join(result._json_chunks()) == json.dumps(report, indent=2) + "\n"
        assert dict(calls) == dict.fromkeys(distinct, 1)
        # and so does one matrix's to_json_dict: 4,096 entries, 2 values
        grid = [["0.25" if (i + j) % 2 else "0.5" for j in range(64)] for i in range(64)]
        calls.clear()
        FuzzyMatrix.from_rows(grid).to_json_dict()
        assert dict(calls) == {F(1, 4): 1, F(1, 2): 1}


class TestReportWriter:
    """Classification._json_chunks and ChainSignature._json_text write the text
    of json.dumps(..., indent=2) of to_json_list and to_json_dict, one class at
    a time, with no json encoder."""

    spelled = spelled_corpora().map(lambda grids: [FuzzyMatrix.from_rows(g) for g in grids])

    @staticmethod
    def check(result):
        chunks = list(result._json_chunks())
        assert len(chunks) == len(result) + 1
        assert "".join(chunks) == json.dumps(result.to_json_list(), indent=2) + "\n"
        for cls in result.classes:
            sig = cls.signature
            assert sig._json_text("") == json.dumps(sig.to_json_dict(), indent=2)

    @given(st.one_of(corpora(), spelled))
    def test_matches_json_dumps(self, corpus):
        self.check(cc.classify_corpus(corpus))

    @pytest.mark.parametrize(
        "corpus",
        [[M()], [M(), M()], [M(["0"])], [M(["1"])], [M(["0.5"])], [M(["1/3"]), M(["0.25"])]],
        ids=["order0", "order0-twice", "zero", "one", "half", "two-members"],
    )
    def test_smallest_corpora(self, corpus):
        self.check(cc.classify_corpus(corpus))

    def test_no_class(self):
        assert "".join(cuts.Classification(2, ())._json_chunks()) == "[]\n"

    @pytest.mark.parametrize("name", ["golden_corpus.json", "golden_corpus.txt"])
    def test_golden(self, name):
        from cutchains import cli

        result = cc.classify_corpus(cli._load_corpus(str(DATA / name), "auto"))
        self.check(result)
        assert "".join(result._json_chunks()) == (DATA / "golden_classify.json").read_text()
        # each member's signature is its class's
        texts = {i: cls.signature._json_text("") + "\n" for cls in result.classes for i in cls.members}
        signatures = "".join(texts[i] for i in range(len(texts)))
        assert signatures == (DATA / "golden_signatures.json").read_text()

    @given(
        st.one_of(
            st.fractions(min_value=0, max_value=1),
            # exact decimals, and past MAX_DIGITS digits the p/q form
            st.tuples(st.integers(0, MAX_DIGITS + 2), st.integers(0, 3)).flatmap(
                lambda ab: st.integers(0, 2 ** ab[0] * 5 ** ab[1]).map(
                    lambda num: Fraction(num, 2 ** ab[0] * 5 ** ab[1])
                )
            ),
        )
    )
    def test_value_texts_need_no_escape(self, value):
        text = matrices.format_value(value)
        assert text.isascii() and text.isprintable() and '"' not in text and "\\" not in text
        assert json.dumps(text) == f'"{text}"'

    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * n) - 1))))
    def test_cut_texts_need_no_escape(self, order_mask):
        n, mask = order_mask
        (text,) = cuts.ChainSignature(n, [mask]).to_json_dict()["cuts"]
        assert len(text) == n * n and not text.strip("01")
        assert json.dumps(text) == f'"{text}"'

    @given(st.integers(0, 40).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1))))
    def test_lattice_labels_need_no_escape(self, m_mask):
        # HasseDiagram.json_chunks quotes each label in place
        m, mask = m_mask
        for text in (cc.support_label(mask, m), enumeration._labeller(m)(mask)):
            assert text.isascii() and text.isprintable() and '"' not in text and "\\" not in text
            assert json.dumps(text) == f'"{text}"'

    def test_streams(self):
        # 4,096 one-member classes, the 0/1 order-4 matrices with bit 12 set: no
        # two of them are equivalent; their report is 2.4 MB of text
        grids = [[format(i, "016b")[r : r + 4] for r in range(0, 16, 4)] for i in range(4096, 8192)]
        result = cc.classify_corpus([FuzzyMatrix.from_rows(map(list, grid)) for grid in grids])
        assert len(result) == 4096
        tracemalloc.start()
        try:
            size = sum(len(chunk) for chunk in result._json_chunks())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size > 2_000_000
        assert peak < size // 50


class TestMasksEndToEnd:
    def test_no_crisp_matrix_is_built(self, monkeypatch):
        # every cut stays an int mask from _cut_masks to the report
        blocks = (DATA / "golden_corpus.txt").read_text().split("\n\n")
        corpus = [FuzzyMatrix.parse_text(block) for block in blocks]
        f = M(["0.3", "0.7"], ["0.7", "1"])

        def refuse(*args):
            raise AssertionError("a CrispMatrix was built")

        monkeypatch.setattr(cuts, "CrispMatrix", refuse)
        report = cc.classify_corpus(corpus).to_json_list()
        assert report == json.loads((DATA / "golden_classify.json").read_text())
        assert cc.signature(f).to_json_dict()["cuts"] == ["0001", "0111", "1111"]
        assert cc.canonical_representative(cc.signature(f)) == M(["1/3", "2/3"], ["2/3", "1"])
        assert cc.reconstruct(cc.cut_chain(f)) == f
        with pytest.raises(AssertionError, match="a CrispMatrix was built"):
            cc.signature(f).cuts


def on_both_paths(f):
    """f's cut masks, its reconstructed cut chain, its canonical representative
    and its class representative from classify_corpus, from the per-cell bit
    loops and then from the linear paths, which every order takes with
    cuts._BIT_LOOP_CELLS at -1."""
    results = []
    for limit in (cuts._BIT_LOOP_CELLS, -1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cuts, "_BIT_LOOP_CELLS", limit)
            masks = cuts._cut_masks(f.order, cuts._rank_pattern(f))
            representative = cc.canonical_representative(cc.ChainSignature(f.order, masks))
            (klass,) = cc.classify_corpus([f]).classes
            rebuilt = cc.reconstruct(cc.cut_chain(f))
            results.append((masks, rebuilt, representative, klass.representative))
    return results


class TestLinearPaths:
    """Above cuts._BIT_LOOP_CELLS cells, cut masks and representatives are built
    in time linear in the cells; the per-cell bit loops are their oracle."""

    @staticmethod
    def check(f):
        bit_loops, linear = on_both_paths(f)
        assert linear == bit_loops
        assert bit_loops[1] == f
        levels, chain_cuts = levels_and_cuts_oracle(f)  # cuts by the bit loop, on Fractions
        assert bit_loops[0] == tuple(cut.mask for cut in chain_cuts)
        for level, cut in zip(levels, chain_cuts):
            assert cc.alpha_cut(f, level) == cut
        assert cc.strong_alpha_cut(f, 0) == chain_cuts[-1]

    @given(st.one_of(fuzzy_matrices(max_order=8), near_matrices()))
    def test_paths_agree(self, f):
        self.check(f)

    @pytest.mark.parametrize("n", range(9))
    def test_paths_agree_at_every_order(self, n):
        rng = random.Random(n)
        crisp = M(*(rng.choices("01", k=n) for _ in range(n)))
        distinct = M(*([F(i * n + j + 1, n * n) for j in range(n)] for i in range(n)))
        zeros, ones = M(*(["0"] * n,) * n), M(*(["1"] * n,) * n)
        for f in (random_matrix(rng, n), crisp, distinct, zeros, ones):
            self.check(f)

    def test_order_512_classified_in_linear_time(self):
        n = 512
        rng = random.Random(n)
        entries = rng.choices(["0", "1/2", "1"], k=n * n)
        f = M(*(entries[i * n : (i + 1) * n] for i in range(n)))
        start = time.perf_counter()
        (klass,) = cc.classify_corpus([f]).classes
        # the per-cell bit loops took 4.3-5.3 s on an order-512 0/1 matrix
        assert time.perf_counter() - start < 2.0
        ones = int("".join("1" if e == "1" else "0" for e in entries), 2)
        halves = int("".join("0" if e == "0" else "1" for e in entries), 2)
        assert klass.signature.masks == (ones, halves)
        assert klass.representative == f  # the even levels of k = 1 are 1 and 1/2


class TestDirectRepresentatives:
    """Representatives are made straight from their cut masks, with no second
    coerce or range check: the checked constructor is their oracle, and a
    chain of cuts rebuilds each cell at the highest level whose cut holds it."""

    @pytest.mark.parametrize("n", [0, 1, 4, 6, 65])
    def test_equal_to_the_checked_constructor(self, n):
        rng = random.Random(n)
        crisp = M(*(rng.choices("01", k=n) for _ in range(n)))
        zeros, ones = M(*(["0"] * n,) * n), M(*(["1"] * n,) * n)
        for f in (random_matrix(rng, n), crisp, zeros, ones):
            for _, *made in on_both_paths(f):
                for g in made:
                    assert g == FuzzyMatrix(n, g.entries)
                    assert g.order == n and type(g.entries) is tuple
                    assert all(type(row) is tuple for row in g.entries)
                    assert all(type(v) is F for v in g.values())
                    assert pickle.loads(pickle.dumps(g)) == g

    @settings(max_examples=600)  # about one drawn chain in six is a valid one
    @given(cut_tuples(), st.data())
    @example((0, (0,)), None)
    @example((2, (0, 0b0100, 0b1101, 0b1111)), None)
    @example((3, (0b000010000, 0b111111111)), None)
    def test_each_cell_takes_its_highest_level(self, case, data):
        order, masks = case
        try:
            sig = cc.ChainSignature(order, masks)
        except ValueError:
            return  # TestCutChecks covers refused masks
        if data is None:
            levels = [F(len(masks) - i, len(masks) + 1) for i in range(len(masks))]
        else:
            level = st.fractions(min_value=0, max_value=1).filter(bool)
            size = len(masks)
            levels = data.draw(st.lists(level, min_size=size, max_size=size, unique=True))
        chain = cc.CutChain(order, sorted(levels, reverse=True), masks)
        even = [F(len(masks) - i, len(masks)) for i in range(len(masks))]
        for limit in (cuts._BIT_LOOP_CELLS, -1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cuts, "_BIT_LOOP_CELLS", limit)
                rebuilt = cc.reconstruct(chain)
                representative = cc.canonical_representative(sig)
            assert rebuilt == FuzzyMatrix(order, reconstruct_oracle(order, chain.levels, masks))
            assert representative == FuzzyMatrix(order, reconstruct_oracle(order, even, masks))


# 1/3 and a value 1/(3*10^40) above it convert to the same float.
THIRD = F(1, 3)
NEAR_THIRD = F(10**40 + 1, 3 * 10**40)

any_matrices = st.one_of(fuzzy_matrices(), near_matrices())


def triples(pattern):
    """The per-cell (rank, == 0, == 1) form of a _rank_pattern."""
    return [(r, r == pattern.zero, r == pattern.one) for r in pattern.ranks]


class TestIntegerKeysAgainstFractionOracles:
    def test_near_matrices_reach_float_ties(self):
        # find raises unless some draw has two interior values that share a float
        find(
            near_matrices(),
            lambda f: shares_a_float(f) and cc.k_level(f) >= 2,
            settings=settings(phases=[Phase.generate], database=None),
        )

    def test_values_sharing_a_float_stay_ordered(self):
        assert float(THIRD) == float(NEAR_THIRD) and THIRD < NEAR_THIRD
        a = M([THIRD, NEAR_THIRD], [0, 1])
        b = M([NEAR_THIRD, THIRD], [0, 1])
        assert [c.bits for c in cc.signature(a).cuts] == ["0001", "0101", "1101"]
        assert [c.bits for c in cc.signature(b).cuts] == ["0001", "1001", "1101"]
        assert cc.cut_chain(a).levels == (F(1), NEAR_THIRD, THIRD)
        assert not cc.equivalent_direct(a, b)
        assert not cc.equivalent_cuts(a, b)
        assert not equivalent_pairwise(a, b)
        assert cc.k_level(a) == 2

    @given(any_matrices)
    def test_signature_and_cut_chain(self, f):
        levels, chain_cuts = levels_and_cuts_oracle(f)
        assert cc.signature(f).cuts == chain_cuts
        chain = cc.cut_chain(f)
        assert chain.levels == levels and chain.masks == tuple(c.mask for c in chain_cuts)
        assert cc.signature(f).masks == chain.masks

    @given(any_matrices)
    def test_rank_pattern_and_k_level(self, f):
        assert triples(cuts._rank_pattern(f)) == rank_pattern_oracle(f)
        assert cc.k_level(f) == len({v for v in f.values() if 0 < v < 1})

    @given(st.one_of(matrix_pairs(max_order=2), near_matrix_pairs()))
    def test_equivalence(self, pair):
        a, b = pair
        oracle = rank_pattern_oracle(a) == rank_pattern_oracle(b)
        assert cc.equivalent_direct(a, b) == oracle == equivalent_pairwise(a, b)
        assert cc.equivalent_cuts(a, b) == oracle

    @given(near_matrices())
    def test_remap_is_equivalent(self, f):
        g = order_preserving_remap(f)
        assert cc.equivalent_direct(f, g) and equivalent_pairwise(f, g)
        assert cc.signature(f) == cc.signature(g)


class TestCrossModuleAgainstEnumeration:
    def test_enumerated_chains_are_signatures_in_the_same_bit_order(self):
        # every chain over the 4 cells of an order-2 matrix, wrapped as a signature
        chains = 0
        for k in range(5):
            for record in cc.enumerate_chains(4, k):
                sig = cc.ChainSignature(2, record.components)
                assert tuple(sig.to_json_dict()["cuts"]) == record.bitstrings()
                assert cc.signature(cc.canonical_representative(sig)) == sig
                chains += 1
        assert chains == 299

    def test_pairwise_classes_match_chain_counts_per_level(self):
        # classes among the 81 grid matrices split by k exactly as the per-k counts
        mats = list(grid_matrices(2, grid_values(1)))
        result = cc.classify_corpus(mats)
        by_k = {}
        for klass in result.classes:
            by_k[klass.signature.k] = by_k.get(klass.signature.k, 0) + 1
        assert by_k == {0: 16, 1: 65}
