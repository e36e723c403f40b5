import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

import cutchains
from cutchains import cli, cuts, enumeration
from cutchains.cli import (
    MAX_DIGITS,
    MAX_INPUT_BYTES,
    MAX_SIGNATURE_CELLS,
    NAIVE_MAX_CELLS,
    _json_array_chunks,
    main,
)
from helpers import (
    STDERR_BYTE_BOUND,
    chain_line,
    counted_format_value,
    spelled_corpora,
    table_json_oracle,
)

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_command(*argv):
    """`python -m cutchains ARGV` and an environment in which the child imports
    the same package as this process, installed or not."""
    package_root = str(Path(cutchains.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "cutchains", *argv], {**os.environ, "PYTHONPATH": path}


def distinct_values_text(n):
    """An order-n matrix of the n^2 distinct values 1/n^2, 2/n^2, ..., 1, as text."""
    rows = (" ".join(f"{i * n + j + 1}/{n * n}" for j in range(n)) for i in range(n))
    return "\n".join(rows) + "\n"


class TestCount:
    def test_total(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "2")
        assert code == 0 and out == "299\n"

    def test_per_k(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "2", "--k", "3")
        assert code == 0 and out == "84\n"

    def test_rooted(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "2", "--k", "1", "--root", "O")
        assert code == 0 and out == "15\n"

    def test_rooted_total(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "2", "--root", "O")
        assert code == 0 and out == "150\n"

    def test_methods_agree(self, capsys):
        _, naive, _ = run_cli(capsys, "count", "--n", "3", "--method", "naive")
        _, ie, _ = run_cli(capsys, "count", "--n", "3", "--method", "ie")
        assert naive == ie == "28349043\n"

    def test_out_of_range_k_prints_zero(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "2", "--k", "9")
        assert code == 0 and out == "0\n"

    def test_rooted_methods_agree(self, capsys):
        for root in ("O", "J"):
            for k, want in (([], "150\n"), (["--k", "2"], "50\n")):
                for method in ("naive", "ie"):
                    code, out, _ = run_cli(
                        capsys, "count", "--n", "2", "--root", root, *k, "--method", method
                    )
                    assert code == 0 and out == want

    def test_negative_n_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "-1"])
        assert exc.value.code == 2

    def test_auto_per_k_beyond_nested_range(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "5", "--k", "2")
        assert code == 0 and out == "%d\n" % (4**25 - 2 * 3**25 + 2**25)

    def test_no_parallel_flag(self):
        for argv in (["count", "--n", "2"], ["enumerate", "--m", "4", "--k", "2"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--parallel", "2"])
            assert exc.value.code == 2


class TestPrintLimit:
    """Counts longer than MAX_DIGITS digits are refused before counting, whatever
    the interpreter's own limit."""

    def test_longest_printable_total_served(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "38")
        assert code == 0 and len(out) == 4168 + 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--n", "39"],
            ["count", "--n", "39", "--root", "J"],
            ["sequence", "--max-n", "39"],
            ["table", "--max-n", "39", "--format", "json"],
        ],
    )
    def test_too_long_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.startswith("infeasible job:") and err.count("\n") == 1

    def test_short_per_k_count_served(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "39", "--k", "5")
        assert code == 0 and len(out) == 1286 + 1

    @pytest.mark.parametrize("root", [[], ["--root", "O"], ["--root", "J"]])
    def test_printable_per_k_count_past_the_total_bound_served(self, capsys, root):
        # the only chains of 1521 steps over 1521 cells add one cell per step
        code, out, err = run_cli(capsys, "count", "--n", "39", "--k", "1521", *root)
        assert (code, err) == (0, "")
        assert len(out) == 4182 + 1 and int(out) == math.factorial(1521)

    @pytest.mark.parametrize("root", [[], ["--root", "O"], ["--root", "J"]])
    def test_too_long_per_k_count_refused_once_computed(self, capsys, root):
        # its lower bound, 1000! * slots^521, has fewer than MAX_DIGITS digits
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "count", "--n", "39", "--k", "1000", *root)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        bits = cutchains.chain_count_ie(1521, 1000, root[1] if root else None).bit_length() - 1
        assert err == (
            f"infeasible job: projected at least 2^{bits} chains for m=1521, k=1000 exceeds "
            f"the limit of {MAX_DIGITS} digits for printing an integer\n"
        )

    def test_independent_of_the_interpreter_limit(self, capsys):
        caller_limit = sys.get_int_max_str_digits()
        try:
            for limit in (640, 0):
                sys.set_int_max_str_digits(limit)
                code, out, _ = run_cli(capsys, "count", "--n", "38")
                assert code == 0 and len(out) == 4168 + 1
                assert sys.get_int_max_str_digits() == limit
                for argv in (["count", "--n", "39"], ["count", "--n", "2000", "--k", "1"]):
                    start = time.perf_counter()
                    code, out, err = run_cli(capsys, *argv)
                    assert time.perf_counter() - start < 1.0
                    assert code == 3 and out == "" and err.startswith("infeasible job:")
                    assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(caller_limit)


class TestUnlimitedInterpreter:
    """With the interpreter's digit limit off (PYTHONINTMAXSTRDIGITS=0), the CLI
    still bounds every integer it reads or prints at MAX_DIGITS digits, so each
    of these jobs, which would take seconds to minutes, is refused at once."""

    @staticmethod
    def run_unlimited(*argv):
        command, env = cli_command(*argv)
        env["PYTHONINTMAXSTRDIGITS"] = "0"
        return subprocess.run(command, capture_output=True, text=True, env=env, timeout=5)

    @staticmethod
    def assert_refused(result, code, prefix):
        assert (result.returncode, result.stdout) == (code, "")
        assert result.stderr.startswith(prefix) and result.stderr.count("\n") == 1
        assert len(result.stderr.encode()) < STDERR_BYTE_BOUND

    def assert_own_digit_limit(self, result):
        self.assert_refused(result, 4, "error:")
        # the program's own limit, not the interpreter's advice to raise it
        assert f"above the limit of {MAX_DIGITS}" in result.stderr
        assert "set_int_max_str_digits" not in result.stderr

    def test_long_mantissa_is_malformed(self, tmp_path):
        matrix = tmp_path / "mantissa.txt"
        matrix.write_text("0." + "1" * 10**6 + "\n")
        self.assert_refused(self.run_unlimited("signature", "--input", str(matrix)), 4, "error:")

    @pytest.mark.parametrize(
        "value",
        ["1" * 10**6, "1/" + "3" * 10**6, "1" * 10**6 + "e-99999"],
        ids=["integer", "fraction", "exponent"],
    )
    def test_long_value_error_is_bounded(self, tmp_path, value):
        matrix = tmp_path / "value.txt"
        matrix.write_text(value + "\n")
        result = self.run_unlimited("signature", "--input", str(matrix))
        self.assert_refused(result, 4, "error:")
        assert f"... ({len(value)} characters)" in result.stderr

    def test_long_json_integer_is_malformed(self, tmp_path):
        matrix = tmp_path / "order.json"
        matrix.write_text('{"n": 1' + "0" * 10**6 + ', "entries": [["0.5"]]}\n')
        self.assert_own_digit_limit(self.run_unlimited("signature", "--input", str(matrix)))

    @pytest.mark.parametrize(
        "entry", ["1" + "0" * 10**6, "-" + "9" * (MAX_DIGITS + 1)], ids=["long", "just-past"]
    )
    def test_long_json_entry_is_malformed(self, tmp_path, entry):
        matrix = tmp_path / "entry.json"
        matrix.write_text('{"n": 1, "entries": [[' + entry + "]]}\n")
        self.assert_own_digit_limit(self.run_unlimited("signature", "--input", str(matrix)))

    def test_long_sequence_is_infeasible(self):
        result = self.run_unlimited("sequence", "--max-n", "45")
        self.assert_refused(result, 3, "infeasible job:")


class TestNaiveLimit:
    """Nested summation is refused above NAIVE_MAX_CELLS cells (n = 16) before counting."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--n", "17", "--method", "naive"],
            ["table", "--max-n", "17", "--method", "naive"],
            ["sequence", "--max-n", "17", "--method", "naive"],
            ["count", "--n", "17", "--k", "2", "--method", "naive"],
        ],
    )
    def test_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 3 and out == ""
        assert err.startswith("infeasible job:") and err.count("\n") == 1

    @pytest.mark.parametrize("k_argv", [["--k", "290"], ["--k", "-1", "--root", "J"]])
    def test_k_out_of_range_counts_zero_past_limit(self, capsys, k_argv):
        # no chain has a length outside 0..m, whatever the method
        argv = ["count", "--n", "17", *k_argv]
        for method in ("naive", "ie"):
            assert run_cli(capsys, *argv, "--method", method) == (0, "0\n", "")

    def test_largest_naive_count_served(self, capsys):
        assert NAIVE_MAX_CELLS == 16 * 16
        _, ie, _ = run_cli(capsys, "count", "--n", "16", "--method", "ie")
        assert run_cli(capsys, "count", "--n", "16", "--method", "naive") == (0, ie, "")


class TestSizesAtTheDigitLimit:
    """Size arguments of up to MAX_DIGITS digits are sized in integers: no bound
    makes a float of them, and a refusal line states each large integer by its
    bit length."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--n", str(10**153)],
            ["table", "--max-n", str(10**153)],
            ["sequence", "--max-n", str(10**154)],
            ["count", "--n", str(10**155), "--k", "1"],
            ["count", "--n", str(10**3999), "--method", "naive"],
            ["count", "--n", str(10**3999), "--k", str(10**3999)],
            ["enumerate", "--m", str(10**308), "--k", "1"],
            ["enumerate", "--m", str(10**200), "--k", str(10**150)],
            ["enumerate", "--m", "20000", "--k", "1", "--ceiling", "9" * MAX_DIGITS],
            ["enumerate", "--m", str(10**308), "--k", "0", "--root", "O"],
            ["enumerate", "--m", "100000000", "--k", "0", "--root", "J", "--list"],
            ["lattice", "--m", str(10**4199)],
        ],
    )
    def test_refused_at_once_in_one_short_line(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.startswith("infeasible job:") and err.count("\n") == 1
        assert len(err.encode()) < STDERR_BYTE_BOUND

    def test_large_integers_stated_by_bit_length(self, capsys):
        m = 10**308
        assert run_cli(capsys, "enumerate", "--m", str(m), "--k", "0", "--root", "O") == (
            3,
            "",
            "infeasible job: a chain walk over m=<1024-bit integer> cells is above its "
            "limit of 1048576 cells\n",
        )
        argv = ["enumerate", "--m", "100", "--k", "1", "--ceiling", str(2**64)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 3 and err.endswith(" exceeds the ceiling <65-bit integer>\n")
        code, _, err = run_cli(capsys, "lattice", "--m", str(m))
        assert code == 3 and err == (
            "infeasible job: <1024-bit integer> cells means 2^<1024-bit integer> supports; "
            "the cap is 16\n"
        )

    @pytest.mark.parametrize("root", ["O", "J"])
    def test_rooted_single_chain_counted(self, capsys, root):
        # the one chain of the empty or the full support, whatever m
        argv = ["count", "--n", "9" * 4000, "--k", "0", "--root", root]
        assert run_cli(capsys, *argv) == (0, "1\n", "")

    @pytest.mark.parametrize("k", [str(10**4000), "-1"])
    def test_walk_of_no_chain_served(self, capsys, k):
        assert run_cli(capsys, "enumerate", "--m", str(10**3999), "--k", k) == (0, "0\n", "")

    @pytest.mark.parametrize("labels", [[], ["--labels"]])
    def test_listing_of_no_chain_served(self, capsys, labels):
        # an empty J-rooted job makes no J tail piece, whatever m
        argv = ["enumerate", "--m", str(10**12), "--k", str(10**12 + 1), "--root", "J"]
        assert run_cli(capsys, *argv, "--list", *labels) == (0, "", "")
        argv = ["enumerate", "--m", "9" * 4000, "--k", "-1", "--root", "J", "--list"]
        assert run_cli(capsys, *argv, *labels) == (0, "", "")

    def test_walk_cells_bounded(self, capsys):
        # the only walks within a ceiling past the cell bound are single chains
        assert enumeration.WALK_MAX_CELLS == 1 << 20
        argv = ["enumerate", "--k", "0", "--root", "J", "--list"]
        code, out, _ = run_cli(capsys, *argv, "--m", str(1 << 20))
        assert code == 0 and out == "1" * (1 << 20) + "\n"
        code, out, err = run_cli(capsys, *argv, "--m", str((1 << 20) + 1))
        assert (code, out) == (3, "") and "chain walk" in err


class TestSignatureLimit:
    """`signature` classifies the one-member corpus of its matrix, so a signature
    of more than MAX_SIGNATURE_CELLS cells, n^2 per distinct positive value and
    n^2 more when no entry is 1, is refused by classify's rule, before any cut
    is built."""

    def test_order_70_of_distinct_values_refused_at_once(self, capsys, tmp_path, monkeypatch):
        n = 70
        matrix = tmp_path / "distinct.txt"
        matrix.write_text(distinct_values_text(n))
        assert n**4 > MAX_SIGNATURE_CELLS  # n^2 values, 1 among them

        def no_cuts(*_):
            raise AssertionError("a cut was built")

        monkeypatch.setattr(cuts, "_cut_masks", no_cuts)
        monkeypatch.setattr(cuts, "_build_classes", no_cuts)
        target = tmp_path / "signature.json"
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "signature", "--input", str(matrix), "--output", str(target)
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == "" and not target.exists()
        assert err == (
            f"infeasible job: the class signatures of an order-{n} corpus have {n**4} cells "
            f"in all, above the limit of {MAX_SIGNATURE_CELLS}\n"
        )

    def test_limit_is_inclusive(self, capsys, tmp_path, monkeypatch):
        matrix = tmp_path / "f.txt"
        matrix.write_text("0.3 0.7\n0.7 1\n")  # 3 cuts of 4 cells: 1 is an entry
        monkeypatch.setattr(cli, "MAX_SIGNATURE_CELLS", 12)
        assert run_cli(capsys, "signature", "--input", str(matrix))[0] == 0
        monkeypatch.setattr(cli, "MAX_SIGNATURE_CELLS", 11)
        code, _, err = run_cli(capsys, "signature", "--input", str(matrix))
        assert code == 3 and "12 cells" in err

    def test_signature_is_built_as_a_class_once(self, capsys, tmp_path, monkeypatch):
        matrix = tmp_path / "f.txt"
        matrix.write_text("0.3 0.7\n0.7 1\n")
        groupings = []
        build_classes = cuts._build_classes

        def record(*grouping):
            groupings.append(grouping)
            return build_classes(*grouping)

        monkeypatch.setattr(cuts, "_build_classes", record)
        code, out, _ = run_cli(capsys, "signature", "--input", str(matrix))
        assert code == 0 and json.loads(out)["cuts"] == ["0001", "0111", "1111"]
        assert len(groupings) == 1

    def test_signature_is_rechecked_entrywise(self, tmp_path, monkeypatch):
        matrix = tmp_path / "f.txt"
        matrix.write_text("0.3 0.7\n0.7 1\n")
        reconstruct = cuts._reconstruct

        def drop_top_cut(n, levels, masks):
            return reconstruct(n, tuple(levels)[1:], tuple(masks)[1:])

        monkeypatch.setattr(cuts, "_reconstruct", drop_top_cut)
        with pytest.raises(RuntimeError, match="classification disagreement on corpus index 0"):
            main(["signature", "--input", str(matrix)])


class TestClassifyLimit:
    """A corpus whose class signatures hold more than MAX_SIGNATURE_CELLS cells in
    all, (k + 1) * n^2 per class, is refused before any cut is built; a member
    over the limit puts its own class over it."""

    def test_order_70_of_distinct_values_refused(self, capsys, tmp_path):
        n = 70
        corpus = tmp_path / "distinct.txt"
        corpus.write_text(distinct_values_text(n))
        target = tmp_path / "classes.json"
        code, out, err = run_cli(
            capsys, "classify", "--input", str(corpus), "--output", str(target)
        )
        assert code == 3 and out == "" and not target.exists()
        assert err.startswith("infeasible job:") and err.count("\n") == 1
        assert f"{n * n * n * n} cells" in err

    def test_large_member_refused_before_any_cut_is_built(self, capsys, tmp_path, monkeypatch):
        n = 120
        corpus = tmp_path / "distinct.txt"
        corpus.write_text(distinct_values_text(n))

        def no_cuts(*_):
            raise AssertionError("a cut was built")

        monkeypatch.setattr(cuts, "_cut_masks", no_cuts)
        monkeypatch.setattr(cuts, "_build_classes", no_cuts)
        target = tmp_path / "classes.json"
        code, out, err = run_cli(
            capsys, "classify", "--input", str(corpus), "--output", str(target)
        )
        assert code == 3 and out == "" and not target.exists()
        assert err.startswith("infeasible job:") and err.count("\n") == 1
        assert f"{n**4} cells" in err

    def test_malformed_corpus_reported_before_the_limit(self, capsys, tmp_path):
        n = 70
        corpus = tmp_path / "mixed.txt"
        # a member over the limit, then one of another order
        corpus.write_text(distinct_values_text(n) + "\n0.5\n")
        code, out, err = run_cli(capsys, "classify", "--input", str(corpus))
        assert (code, out) == (4, "")
        assert err == (
            f"error: malformed corpus file {corpus}: mixed orders in corpus: "
            f"member 1 has order 1, member 0 has order {n}\n"
        )

    def test_limit_is_inclusive_and_counts_each_class_once(self, capsys, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus.txt"
        # classes of 3 and 2 cuts of 4 cells; the third matrix joins the first class
        corpus.write_text("0.3 0.7\n0.7 1\n\n0.5 0.5\n0.5 0.5\n\n0.1 0.5\n0.5 1\n")
        monkeypatch.setattr(cli, "MAX_SIGNATURE_CELLS", 20)
        code, out, _ = run_cli(capsys, "classify", "--input", str(corpus))
        assert code == 0 and len(json.loads(out)) == 2
        monkeypatch.setattr(cli, "MAX_SIGNATURE_CELLS", 19)
        code, out, err = run_cli(capsys, "classify", "--input", str(corpus))
        assert code == 3 and out == "" and "20 cells" in err

    def test_report_bound_refused_before_any_class_is_built(self, capsys, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus.txt"
        # classes of 3 and 2 cuts of 4 cells, as above: 20 cells in all
        corpus.write_text("0.3 0.7\n0.7 1\n\n0.5 0.5\n0.5 0.5\n\n0.1 0.5\n0.5 1\n")
        groupings = []
        build_classes = cuts._build_classes

        def record(*grouping):
            groupings.append(grouping)
            return build_classes(*grouping)

        monkeypatch.setattr(cuts, "_build_classes", record)
        monkeypatch.setattr(cli, "MAX_SIGNATURE_CELLS", 20)
        assert run_cli(capsys, "classify", "--input", str(corpus))[0] == 0
        assert len(groupings) == 1  # the CLI builds its classes in this step

        def no_classes(*_):
            raise AssertionError("a class was built")

        monkeypatch.setattr(cuts, "_build_classes", no_classes)
        monkeypatch.setattr(cuts, "ChainSignature", no_classes)
        monkeypatch.setattr(cuts, "_reconstruct", no_classes)
        monkeypatch.setattr(cli, "MAX_SIGNATURE_CELLS", 19)
        target = tmp_path / "classes.json"
        code, out, err = run_cli(
            capsys, "classify", "--input", str(corpus), "--output", str(target)
        )
        assert (code, out) == (3, "") and not target.exists()
        assert err == (
            "infeasible job: the class signatures of an order-2 corpus have 20 cells "
            "in all, above the limit of 19\n"
        )


class TestChainLimit:
    """`enumerate` refuses a job of more than MAX_CHAIN_CEILING chains whatever
    its --ceiling says; a job past its ceiling is refused in the ceiling's words
    first."""

    def test_job_within_a_huge_ceiling_refused_at_once(self, capsys):
        start = time.perf_counter()
        argv = ["enumerate", "--m", "40", "--k", "20", "--ceiling", "1" + "0" * 60]
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            "infeasible job: projected at least 2^172 chains for m=40, k=20 exceeds "
            f"the limit of {cli.MAX_CHAIN_CEILING} chains for enumerate\n"
        )
        assert cli.MAX_CHAIN_CEILING == 10**8 > enumeration.DEFAULT_CHAIN_CEILING

    @pytest.mark.parametrize(
        "extra", [[], ["--list"], ["--list", "--labels"], ["--group-by-sizes"]]
    )
    def test_limit_is_inclusive_and_applies_to_every_mode(
        self, capsys, monkeypatch, tmp_path, extra
    ):
        argv = ["enumerate", "--m", "4", "--k", "2", *extra]  # 110 chains
        monkeypatch.setattr(cli, "MAX_CHAIN_CEILING", 110)
        _, want, _ = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--ceiling", "1000") == (0, want, "")
        monkeypatch.setattr(cli, "MAX_CHAIN_CEILING", 109)
        target = tmp_path / "chains.txt"
        code, out, err = run_cli(capsys, *argv, "--ceiling", "1000", "--output", str(target))
        assert (code, out) == (3, "") and not target.exists()
        assert err == (
            "infeasible job: projected 110 chains for m=4, k=2 exceeds the limit of 109 "
            "chains for enumerate\n"
        )
        # a ceiling under the limit is the one that applies
        assert run_cli(capsys, *argv, "--ceiling", "109")[2].endswith(" the ceiling 109\n")

    def test_ceiling_refuses_first(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CHAIN_CEILING", 10)
        code, _, err = run_cli(capsys, "enumerate", "--m", "4", "--k", "2", "--ceiling", "50")
        assert code == 3 and err.endswith(" exceeds the ceiling 50\n")
        # a job of no chain is served whatever the limit
        argv = ["enumerate", "--m", "4", "--k", "5", "--ceiling", "50"]
        assert run_cli(capsys, *argv) == (0, "0\n", "")


class TestTable:
    def test_csv_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "3")
        assert code == 0
        assert out == (DATA / "table_max3.csv").read_text()

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["rows"][2] == {"n": 2, "counts": [16, 65, 110, 84, 24], "total": 299}

    @pytest.mark.parametrize("root", [None, "O", "J"])
    def test_json_bytes(self, capsys, root):
        for max_n in range(13):
            argv = ["table", "--max-n", str(max_n), "--format", "json"]
            code, out, _ = run_cli(capsys, *argv, *(["--root", root] if root else []))
            table = cutchains.count_table(max_n, root=root)
            assert (code, out) == (0, json.dumps(table_json_oracle(table), indent=2) + "\n")

    def test_json_chunks_stream(self):
        # the text of this table is 11.6 MiB, and json.dumps allocates about 24 MiB
        # for it; its largest row, written as one chunk, is 1.9 MiB
        table = cutchains.count_table(30)
        tracemalloc.start()
        try:
            size = sum(len(chunk) for chunk in cli._table_json_chunks(table.rows, None, 30))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size > 11 * 2**20
        assert peak < 8 * 2**20

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table", "--max-n", "3", "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == (DATA / "table_max3.csv").read_text()

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "table", "--max-n", "1", "--output", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_rooted_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "2", "--root", "J")
        assert code == 0
        assert "2,2,50,150" in out.splitlines()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("root", [None, "O", "J"])
    def test_methods_write_the_same_bytes(self, capsys, tmp_path, fmt, root):
        target = tmp_path / "table"
        for max_n in range(7):
            argv = ["table", "--max-n", str(max_n), "--format", fmt]
            argv += ["--root", root] if root else []
            code, want, _ = run_cli(capsys, *argv)
            assert code == 0
            for method in ("naive", "ie"):
                assert run_cli(capsys, *argv, "--method", method) == (0, want, "")
                argv_out = [*argv, "--method", method, "--output", str(target)]
                assert run_cli(capsys, *argv_out) == (0, "", "")
                assert target.read_bytes() == want.encode()

    @pytest.mark.parametrize("fmt,bound_mib", [("csv", 4.5), ("json", 7)])
    def test_rows_written_as_made(self, tmp_path, fmt, bound_mib):
        # the rows of this table hold 5.4 MiB; written as the sweep makes them,
        # the CLI holds about 2.7 MiB as CSV and 4.8 MiB as JSON at its peak
        target = tmp_path / "table"
        tracemalloc.start()
        try:
            code = main(["table", "--max-n", "30", "--format", fmt, "--output", str(target)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and target.stat().st_size > 11 * 2**20
        assert peak < bound_mib * 2**20


class TestSequence:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--max-n", "4")
        assert code == 0
        assert out == "1\n3\n299\n28349043\n21262618727925419\n"

    def test_b_file(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--max-n", "2", "--b-file")
        assert code == 0
        assert out == "0 1\n1 3\n2 299\n"

    def test_max_n_zero(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--max-n", "0")
        assert code == 0 and out == "1\n"


class TestEnumerate:
    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--m", "4", "--k", "3")
        assert code == 0 and out == "84\n"

    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--m", "2", "--k", "1", "--list")
        assert code == 0
        assert out == "00 < 01\n00 < 10\n00 < 11\n01 < 11\n10 < 11\n"

    def test_list_labeled(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--m", "2", "--k", "1", "--list", "--labels"
        )
        assert code == 0
        assert out.splitlines()[0] == "A_0 < A_1^{2}"

    def test_group_by_sizes(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--m", "4", "--k", "3", "--group-by-sizes")
        assert code == 0
        assert out == (
            "0,1,2,3: 24\n0,1,2,4: 12\n0,1,3,4: 12\n0,2,3,4: 12\n1,2,3,4: 24\n"
        )

    def test_rooted(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--m", "4", "--k", "1", "--root", "O")
        assert code == 0 and out == "15\n"

    def test_rooted_grouping(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--m", "4", "--k", "1", "--root", "O", "--group-by-sizes"
        )
        assert code == 0 and out == "0,1: 4\n0,2: 6\n0,3: 4\n0,4: 1\n"

    def test_ceiling_env_is_not_read(self, capsys, monkeypatch):
        argv = ["enumerate", "--m", "4", "--k", "2"]
        for value in ("10", "-5", "plenty"):
            monkeypatch.setenv("CUTCHAINS_CHAIN_CEILING", value)
            assert run_cli(capsys, *argv) == (0, "110\n", "")
            code, out, err = run_cli(capsys, *argv, "--ceiling", "10")
            assert code == 3 and out == "" and err.count("\n") == 1 and "110" in err
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--ceiling", "-5"])
            assert exc.value.code == 2 and capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "flags", [["--list", "--group-by-sizes"], ["--labels"], ["--labels", "--group-by-sizes"]]
    )
    def test_conflicting_flags_are_usage_errors(self, capsys, flags):
        code, out, err = run_cli(capsys, "enumerate", "--m", "2", "--k", "1", *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_infeasible_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--m", "4", "--k", "2", "--ceiling", "5")
        assert code == 3
        assert "110" in err

    @pytest.mark.parametrize("extra", [[], ["--list"], ["--group-by-sizes"]])
    def test_default_ceiling_is_the_library_one(self, capsys, extra):
        # --ceiling defaults to enumeration.DEFAULT_CHAIN_CEILING, read when
        # the command runs, so building the parser loads no library module
        code, out, err = run_cli(capsys, "enumerate", "--m", "30", "--k", "5", *extra)
        ceiling = cutchains.enumeration.DEFAULT_CHAIN_CEILING
        assert (code, out) == (3, "")
        assert err.endswith(f" exceeds the ceiling {ceiling}\n") and err.count("\n") == 1

    @pytest.mark.parametrize("m", ["4000", "9100"])  # a 1909- and a 4342-digit projection
    def test_huge_projection_refused_in_one_short_line(self, capsys, m):
        code, out, err = run_cli(capsys, "enumerate", "--m", m, "--k", "1")
        assert code == 3 and out == ""
        assert err.startswith("infeasible job: projected at least 2^") and err.count("\n") == 1
        assert len(err) < 200

    @pytest.mark.parametrize(
        "m,k", [("100000000", "1"), ("30000000", "30"), ("12000", "12000"), ("6000", "6000")]
    )
    def test_costly_projection_refused_at_once(self, capsys, m, k):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "enumerate", "--m", m, "--k", k)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.startswith("infeasible job: projected at least 2^") and err.count("\n") == 1

    def test_list_output_file_matches_stdout(self, capsys, tmp_path):
        argv = ["enumerate", "--m", "4", "--k", "2", "--list", "--labels"]
        _, stdout, _ = run_cli(capsys, *argv)
        target = tmp_path / "chains.txt"
        code, out, _ = run_cli(capsys, *argv, "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == stdout.encode("utf-8")

    def test_benchmark_listing_matches_records(self, capsys, tmp_path):
        target = tmp_path / "chains.txt"
        code, out, _ = run_cli(
            capsys, "enumerate", "--m", "8", "--k", "2", "--list", "--labels",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        expected = "".join(
            chain_line(r, labeled=True) + "\n" for r in cutchains.enumerate_chains(8, 2)
        )
        assert target.read_bytes() == expected.encode("utf-8")

    def test_refused_listing_leaves_no_file(self, capsys, tmp_path):
        target = tmp_path / "chains.txt"
        code, _, _ = run_cli(
            capsys, "enumerate", "--m", "4", "--k", "2", "--list", "--ceiling", "5",
            "--output", str(target),
        )
        assert code == 3 and not target.exists()


class TestMatrixCommands:
    def write(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    def test_equivalent_true(self, capsys, tmp_path):
        a = self.write(tmp_path, "a.txt", "0.5\n")
        b = self.write(tmp_path, "b.txt", "0.7\n")
        code, out, _ = run_cli(capsys, "equivalent", a, b)
        assert code == 0 and out == "equivalent\n"

    def test_equivalent_false(self, capsys, tmp_path):
        a = self.write(tmp_path, "a.json", json.dumps({"n": 1, "entries": [["1"]]}))
        b = self.write(tmp_path, "b.json", json.dumps({"n": 1, "entries": [["0.9"]]}))
        code, out, _ = run_cli(capsys, "equivalent", a, b)
        assert code == 1 and out == "inequivalent\n"

    def test_equivalent_order_mismatch_is_malformed(self, capsys, tmp_path):
        a = self.write(tmp_path, "a.txt", "0.5\n")
        b = self.write(tmp_path, "b.txt", "0.5 0.5\n0.5 0.5\n")
        code, _, err = run_cli(capsys, "equivalent", a, b)
        assert code == 4 and "order mismatch" in err

    def test_malformed_matrix(self, capsys, tmp_path):
        bad = self.write(tmp_path, "bad.txt", "0.5 nonsense\n")
        code, _, err = run_cli(capsys, "signature", "--input", bad)
        assert code == 4 and "malformed" in err

    def test_huge_exponent_is_malformed(self, capsys, tmp_path):
        bad = self.write(tmp_path, "bad.txt", "1e-30000000\n")
        code, _, err = run_cli(capsys, "signature", "--input", bad)
        assert code == 4 and "exponent" in err

    def test_bool_order_is_malformed(self, capsys, tmp_path):
        bad = self.write(tmp_path, "bad.json", json.dumps({"n": True, "entries": [["0.5"]]}))
        code, _, err = run_cli(capsys, "signature", "--input", bad)
        assert code == 4 and '"n" must be an integer' in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 1.0, "entries": [["0.5"]]}',
            '{"n": 1, "entries": [[true]]}',
            '{"n": 1, "entries": [[false]]}',
            '{"n": 1, "entries": [[1e-30000000]]}',
        ],
    )
    def test_bad_json_literal_is_malformed(self, capsys, tmp_path, text):
        bad = self.write(tmp_path, "bad.json", text)
        code, out, err = run_cli(capsys, "signature", "--input", bad)
        assert code == 4 and out == ""
        assert err.startswith("error: malformed matrix file") and err.count("\n") == 1

    def test_json_numbers_read_from_their_literal(self, capsys, tmp_path):
        # the two interior values share a float, so reading them as floats merges them
        entries = ["0.12345678901234567891", "0.12345678901234567892", "0", "1"]
        rows = f"[{entries[0]}, {entries[1]}], [{entries[2]}, {entries[3]}]"
        numbers = self.write(tmp_path, "long.json", f'{{"n": 2, "entries": [{rows}]}}')
        strings = self.write(
            tmp_path, "longs.json", json.dumps({"n": 2, "entries": [entries[:2], entries[2:]]})
        )
        assert run_cli(capsys, "equivalent", numbers, strings)[:2] == (0, "equivalent\n")
        for path in (numbers, strings):
            code, out, _ = run_cli(capsys, "signature", "--input", path)
            assert code == 0 and json.loads(out)["k"] == 2

    def test_unreadable_input_is_malformed(self, capsys, tmp_path):
        undecodable = tmp_path / "latin1.txt"
        undecodable.write_bytes(b"0.5 \xe9\n")
        deep = self.write(tmp_path, "deep.json", "[" * 200_000)
        for argv in (["signature", "--input", str(undecodable)], ["classify", "--input", deep]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 4 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["classify", "signature"])
    def test_input_over_size_limit_refused(self, capsys, tmp_path, command):
        at_limit = tmp_path / "at_limit.txt"
        at_limit.write_text("0.5" + " " * (MAX_INPUT_BYTES - 4) + "\n")
        code, out, _ = run_cli(capsys, command, "--input", str(at_limit))
        assert code == 0 and '"k": 1' in out
        sparse = tmp_path / "sparse.txt"
        with open(sparse, "wb") as handle:
            handle.truncate(MAX_INPUT_BYTES + 1)
        # a valid matrix one byte past the limit in fewer characters: the
        # no-break space is whitespace to the parser and two bytes in UTF-8
        padded = tmp_path / "padded.txt"
        padded.write_text("0.5 " + "\u00a0" * ((MAX_INPUT_BYTES - 4) // 2) + "\n")
        for over in (sparse, padded):
            assert over.stat().st_size == MAX_INPUT_BYTES + 1
            start = time.perf_counter()
            code, out, err = run_cli(capsys, command, "--input", str(over))
            assert time.perf_counter() - start < 0.5
            assert code == 4 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"{MAX_INPUT_BYTES}-byte limit" in err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_piped_input_bounded_in_bytes(self, capsys, tmp_path):
        # a valid matrix over the limit in bytes but under it in characters: a
        # pipe reports no size, so only the bounded read can refuse it
        payload = ("0.5 " + "\u00a0" * (MAX_INPUT_BYTES // 2 + 10) + "\n").encode("utf-8")
        assert len(payload) > MAX_INPUT_BYTES > len(payload.decode("utf-8"))
        fifo = tmp_path / "matrix.txt"
        os.mkfifo(fifo)

        def feed():
            try:
                with open(fifo, "wb") as handle:
                    handle.write(payload)
            except BrokenPipeError:  # the reader stops at the limit
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        code, out, err = run_cli(capsys, "signature", "--input", str(fifo))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{MAX_INPUT_BYTES}-byte limit" in err

    @pytest.mark.skipif(not Path("/dev/zero").exists(), reason="needs /dev/zero")
    def test_unbounded_stream_refused(self, capsys):
        code, out, err = run_cli(capsys, "signature", "--input", "/dev/zero")
        assert code == 4 and out == ""
        assert "byte limit" in err and err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "signature", "--input", "/nonexistent/x.txt")
        assert code == 4

    def test_signature(self, capsys, tmp_path):
        path = self.write(tmp_path, "f.txt", "0.3 0.7\n0.7 1\n")
        code, out, _ = run_cli(capsys, "signature", "--input", path)
        assert code == 0
        assert json.loads(out) == {
            "n": 2,
            "k": 2,
            "cuts": ["0001", "0111", "1111"],
            "o_rooted": False,
            "j_rooted": True,
        }

    def test_classify_json_corpus(self, capsys, tmp_path):
        corpus = [
            {"n": 1, "entries": [["0.5"]]},
            {"n": 1, "entries": [["1"]]},
            {"n": 1, "entries": [["0.25"]]},
        ]
        path = self.write(tmp_path, "corpus.json", json.dumps(corpus))
        code, out, _ = run_cli(capsys, "classify", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert len(report) == 2
        members = sorted(tuple(entry["members"]) for entry in report)
        assert members == [(0, 2), (1,)]

    def test_classify_text_corpus(self, capsys, tmp_path):
        text = "0.5 0\n0 0\n\n1 0\n0 0\n\n0.9 0\n0 0\n"
        path = self.write(tmp_path, "corpus.txt", text)
        code, out, _ = run_cli(capsys, "classify", "--input", path)
        assert code == 0
        assert len(json.loads(out)) == 2

    def test_classify_mixed_orders_is_malformed(self, capsys, tmp_path):
        # the first member whose order differs is named, with both orders
        text = "0.5\n\n1\n\n0.5 0.5\n0.5 0.5\n\n0\n"
        path = self.write(tmp_path, "corpus.txt", text)
        code, out, err = run_cli(capsys, "classify", "--input", path)
        assert (code, out) == (4, "")
        assert err == (
            f"error: malformed corpus file {path}: mixed orders in corpus: "
            "member 2 has order 2, member 0 has order 1\n"
        )

    @pytest.mark.parametrize("name,text", [("empty.txt", "\n \n"), ("empty.json", "[]")])
    def test_classify_empty_corpus_is_malformed(self, capsys, tmp_path, name, text):
        path = self.write(tmp_path, name, text)
        code, out, err = run_cli(capsys, "classify", "--input", path)
        assert (code, out) == (4, "")
        assert err == f"error: malformed corpus file {path}: corpus must be nonempty\n"

    def test_format_override(self, capsys, tmp_path):
        # JSON content in a .txt file, forced with the override flag
        path = self.write(tmp_path, "f.txt", json.dumps({"n": 1, "entries": [["0.5"]]}))
        code, out, _ = run_cli(
            capsys, "signature", "--input", path, "--input-format", "json"
        )
        assert code == 0 and json.loads(out)["k"] == 1


class TestGoldenBytes:
    """classify and signature output on a small fixed corpus, byte for byte, and
    the SHA-256 of streamed lattice and table outputs."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["lattice", "--m", "10"],
             "5f2b1955241e4ed6df13817e392856d843630b0e52266b0e084eedebdaadcfa6"),
            (["lattice", "--m", "10", "--format", "json"],
             "606d038984a6bb82940aaa58354ae97ff16651155b127a3f9ad689cc6cceda45"),
            (["table", "--max-n", "12"],
             "2d1705bc37ea8d3771ed4deec200ff86b18c5301dadcd1c9ea3b58a3f8a48581"),
            (["table", "--max-n", "12", "--root", "O"],
             "e5f4bb66e37d3a641d6d9e405fc35e876dd881b8b29614e4aa4297cd0e947cee"),
        ],
    )
    def test_lattice_and_table_digests(self, capsys, tmp_path, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
        target = tmp_path / "out"
        code, out, _ = run_cli(capsys, *argv, "--output", str(target))
        assert code == 0 and out == ""
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    CLASSIFY = (DATA / "golden_classify.json").read_text()

    @staticmethod
    def blocks():
        return (DATA / "golden_corpus.txt").read_text().split("\n\n")

    @pytest.mark.parametrize("name", ["golden_corpus.txt", "golden_corpus.json"])
    def test_classify(self, capsys, tmp_path, name):
        code, out, _ = run_cli(capsys, "classify", "--input", str(DATA / name))
        assert code == 0 and out == self.CLASSIFY
        target = tmp_path / "classes.json"
        code, out, _ = run_cli(
            capsys, "classify", "--input", str(DATA / name), "--output", str(target)
        )
        assert code == 0 and out == "" and target.read_text() == self.CLASSIFY

    def test_classify_ranks_each_member_once_and_reads_cuts_once_per_class(
        self, capsys, monkeypatch
    ):
        calls = {"_rank_pattern": 0, "_cut_masks": 0}
        for name in calls:

            def counted(*args, _name=name, _original=getattr(cuts, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cuts, name, counted)

        code, out, _ = run_cli(capsys, "classify", "--input", str(DATA / "golden_corpus.txt"))
        assert code == 0 and out == self.CLASSIFY
        members, classes = len(self.blocks()), len(json.loads(out))
        assert (members, classes) == (11, 8)  # some classes hold several members
        # each member is ranked to group it, each representative to re-check its class
        assert calls == {"_rank_pattern": members + classes, "_cut_masks": classes}

    def test_classify_formats_each_distinct_value_once_per_run(self, capsys, monkeypatch):
        result = cuts.classify_corpus(map(cutchains.FuzzyMatrix.parse_text, self.blocks()))
        distinct = {v for cls in result.classes for v in cls.representative.values()}
        calls = counted_format_value(monkeypatch)
        for runs in (1, 2):
            code, out, _ = run_cli(capsys, "classify", "--input", str(DATA / "golden_corpus.txt"))
            assert code == 0 and out == self.CLASSIFY
            assert dict(calls) == dict.fromkeys(distinct, runs)

    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spelled_corpora())
    def test_classify_output_is_to_json_list(self, capsys, tmp_path, grids):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([{"n": len(grid), "entries": grid} for grid in grids]))
        result = cuts.classify_corpus(map(cutchains.FuzzyMatrix.from_rows, grids))
        target = tmp_path / "classes.json"
        code, out, _ = run_cli(
            capsys, "classify", "--input", str(corpus), "--output", str(target)
        )
        assert (code, out) == (0, "")
        assert target.read_text() == json.dumps(result.to_json_list(), indent=2) + "\n"

    @pytest.mark.parametrize("items", [[], [{}], [{"a": [1, {"b": []}]}, "x\ny", [[]]]])
    def test_streamed_report_matches_json_dumps(self, items):
        for margin in ("", "  "):
            chunks = list(_json_array_chunks(items, margin))
            assert len(chunks) == len(items) + 1
            want = json.dumps(items, indent=2).replace("\n", "\n" + margin) + "\n"
            assert "".join(chunks) == want

    def test_signature(self, capsys, tmp_path):
        outputs = []
        for i, block in enumerate(self.blocks()):
            path = tmp_path / f"m{i}.txt"
            path.write_text(block.strip() + "\n")
            code, out, _ = run_cli(capsys, "signature", "--input", str(path))
            assert code == 0
            outputs.append(out)
        assert "".join(outputs) == (DATA / "golden_signatures.json").read_text()

    def test_equivalent(self, capsys, tmp_path):
        paths = []
        for i, block in enumerate(self.blocks()):
            paths.append(tmp_path / f"m{i}.txt")
            paths[-1].write_text(block)
        # blocks 5 and 6 swap 1/3 and a value that shares its float
        for a, b, want in ((0, 1, 0), (5, 6, 1), (7, 8, 0), (0, 4, 1), (2, 9, 1)):
            code, out, _ = run_cli(capsys, "equivalent", str(paths[a]), str(paths[b]))
            assert (code, out) == (want, ["equivalent\n", "inequivalent\n"][want])


class TestLattice:
    def test_dot(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--m", "2")
        assert code == 0
        assert out.startswith("digraph support_lattice {")
        assert '"01" [label="A_1^{2}"];' in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--m", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["adjacency"] == {"0": ["1"], "1": []}

    @pytest.mark.parametrize("m", [0, 3])
    def test_json_bytes(self, capsys, m):
        code, out, _ = run_cli(capsys, "lattice", "--m", str(m), "--format", "json")
        diagram = cutchains.hasse_export(m)
        assert (code, out) == (0, json.dumps(diagram.to_json_dict(), indent=2) + "\n")

    def test_infeasible(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "lattice", "--m", "20")
        assert code == 3
        target = tmp_path / "lattice.dot"
        code, out, err = run_cli(capsys, "lattice", "--m", "20", "--output", str(target))
        assert code == 3 and out == "" and err.startswith("infeasible job: ")
        assert not target.exists()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--max-n", "3"],
            ["sequence", "--max-n", "3", "--b-file"],
            ["enumerate", "--m", "4", "--k", "2", "--list"],
            ["enumerate", "--m", "4", "--k", "3", "--group-by-sizes"],
            ["lattice", "--m", "3"],
        ],
    )
    def test_repeat_runs_identical(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "2", "--root", "Q"])
        assert exc.value.code == 2

    def test_no_bench_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--n", "2"])
        assert exc.value.code == 2

    def test_classify_has_no_format_option(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--input", "corpus.json", "--format", "json"])
        assert exc.value.code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        command, env = cli_command("count", "--n", "1")
        result = subprocess.run(command, capture_output=True, text=True, env=env)
        assert result.returncode == 0
        assert result.stdout == "3\n"


FULL_DEVICE = "/dev/full"  # every write to it fails with ENOSPC
needs_full_device = pytest.mark.skipif(
    not os.path.exists(FULL_DEVICE), reason=f"{FULL_DEVICE} is absent"
)


def buffered_cli_command(*argv):
    """cli_command with stdout block-buffered, as by default: the interpreter then
    flushes what is left of it as it exits, which must not fail again."""
    command, env = cli_command(*argv)
    env.pop("PYTHONUNBUFFERED", None)
    return command, env


class TestWriteFailures:
    """A failed write to stdout or --output is one error line and exit 2, never a traceback."""

    @staticmethod
    def assert_write_error(code, err):
        assert code == 2
        assert err.startswith("error: cannot write ") and err.count("\n") == 1, err

    @needs_full_device
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--n", "2"],
            ["equivalent", "MATRIX", "MATRIX"],
            ["sequence", "--max-n", "3"],
            ["table", "--max-n", "3"],
            ["lattice", "--m", "12"],
            ["enumerate", "--m", "4", "--k", "2", "--list"],
            ["signature", "--input", "MATRIX"],
        ],
    )
    def test_stdout_on_full_device(self, tmp_path, argv):
        matrix = tmp_path / "a.txt"
        matrix.write_text("0.3 0.7\n0.7 1\n")
        argv = [str(matrix) if word == "MATRIX" else word for word in argv]
        command, env = buffered_cli_command(*argv)
        with open(FULL_DEVICE, "w") as full:
            result = subprocess.run(
                command, stdout=full, stderr=subprocess.PIPE, text=True, env=env
            )
        self.assert_write_error(result.returncode, result.stderr)

    @needs_full_device
    @pytest.mark.parametrize(
        "argv", [["lattice", "--m", "3"], ["table", "--max-n", "3", "--format", "json"]]
    )
    def test_output_on_full_device(self, argv):
        command, env = buffered_cli_command(*argv, "--output", FULL_DEVICE)
        result = subprocess.run(command, capture_output=True, text=True, env=env)
        assert result.stdout == ""
        self.assert_write_error(result.returncode, result.stderr)

    @pytest.mark.parametrize("argv", [["count", "--n", "2"], ["--help"], ["enumerate", "--help"]])
    def test_stdout_closed(self, argv):
        command, env = buffered_cli_command(*argv)
        # started with file descriptor 1 closed, the interpreter has no sys.stdout
        result = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", *command],
            capture_output=True,
            text=True,
            env=env,
        )
        self.assert_write_error(result.returncode, result.stderr)
        assert result.stderr == "error: cannot write stdout: it is closed\n"

    @needs_full_device
    @pytest.mark.parametrize("buffered", [True, False])
    def test_help_on_full_device(self, buffered):
        # argparse ignores a failed write of its help; the CLI reports it
        command, env = buffered_cli_command("--help")
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open(FULL_DEVICE, "w") as full:
            result = subprocess.run(
                command, stdout=full, stderr=subprocess.PIPE, text=True, env=env
            )
        self.assert_write_error(result.returncode, result.stderr)

    def test_help_still_written(self):
        command, env = buffered_cli_command("count", "--help")
        result = subprocess.run(command, capture_output=True, text=True, env=env)
        assert result.returncode == 0 and result.stderr == ""
        assert result.stdout.startswith("usage: cutchains count [-h] --n N")

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["lattice", "--m", "12"], 2),
            (["enumerate", "--m", "40", "--k", "20"], 3),
            (["signature", "--input", "MISSING"], 4),
        ],
    )
    def test_error_line_to_closed_pipe(self, tmp_path, argv, code):
        # stdout and stderr share one pipe whose reader has gone, so the error
        # line fails to be written as well; the exit code stands
        argv = [str(tmp_path / "missing.txt") if word == "MISSING" else word for word in argv]
        command, env = buffered_cli_command(*argv)
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(command, stdout=write, stderr=write, env=env, timeout=60)
        finally:
            os.close(write)
        assert result.returncode == code

    @pytest.mark.parametrize(
        "argv,code",
        [(["enumerate", "--m", "40", "--k", "20"], 3), (["signature", "--input", "MISSING"], 4)],
    )
    def test_error_line_to_closed_stderr(self, tmp_path, argv, code):
        argv = [str(tmp_path / "missing.txt") if word == "MISSING" else word for word in argv]
        command, env = buffered_cli_command(*argv)
        result = subprocess.run(
            ["sh", "-c", 'exec "$@" 2>&-', "sh", *command], capture_output=True, env=env
        )
        assert (result.returncode, result.stdout) == (code, b"")

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_failed_writes_leave_no_descriptor_open(self, monkeypatch):
        # stdout and stderr are pipes whose reader has gone, so the count and the
        # error line both fail, and each stream is pointed at the null device
        def broken_pipe():
            read, write = os.pipe()
            os.close(read)
            return open(write, "w", encoding="utf-8")

        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            with broken_pipe() as out, broken_pipe() as err:
                monkeypatch.setattr(sys, "stdout", out)
                monkeypatch.setattr(sys, "stderr", err)
                assert main(["count", "--n", "2"]) == 2
                monkeypatch.undo()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize(
        "argv,first",
        [
            (["enumerate", "--m", "8", "--k", "2", "--list"], "00000000 < 00000001 < 00000011\n"),
            (["lattice", "--m", "12"], "digraph support_lattice {\n"),
        ],
    )
    def test_pipe_closed_after_first_line(self, argv, first):
        # each output is far larger than a pipe's buffer, so writes go on after the close
        command, env = buffered_cli_command(*argv)
        child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert child.stdout.readline().decode() == first
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        self.assert_write_error(child.wait(), err)
