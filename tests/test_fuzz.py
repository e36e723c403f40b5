"""Fuzzing of everything that reads outside input: values, matrix JSON and the CLI.

Each property states the documented contract for arbitrary input: a parse
either succeeds or raises the documented exception, and a CLI run ends in a
documented exit code, within a time bound, with one error line and no
traceback.
"""

import contextlib
import io
import json
import sys
import time
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cutchains import FuzzyMatrix, parse_value
from cutchains.cli import EXIT_INFEASIBLE, EXIT_MALFORMED, EXIT_USAGE, main
from cutchains.matrices import MAX_DIGITS
from helpers import STDERR_BYTE_BOUND

# Generous for the tiny inputs drawn here; an unbounded parse takes far longer.
WALL_BOUND_S = 2.0

# Text near the value grammar and valid values, so that examples get past the
# first character and, often enough, all the way through a parse.
value_like = st.one_of(
    st.text(alphabet="0123456789./eE+-_ ", max_size=16),
    st.sampled_from(["0", "1", "0.5", "1/3", "2/3", "0.25", "1e-1", "7/5"]),
)
values_text = st.one_of(st.text(max_size=24), value_like)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | values_text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=16,
)
valid_value = st.one_of(
    st.fractions(0, 1, max_denominator=9).map(str),
    st.sampled_from(["0", "1", "0.5", "0.25", "1e-1"]),
)
# Values of up to 10^4 digits, on both sides of the digit limit, so that an
# error has a long text to repeat.
long_value = st.tuples(
    st.sampled_from(["", "0.", "1.", "1/", "-", "0.0"]),
    st.sampled_from("0139"),
    st.integers(1, 10**4),
).map(lambda drawn: drawn[0] + drawn[1] * drawn[2])
value_kinds = [valid_value, value_like, st.one_of(valid_value, long_value)]
square_rows = st.tuples(st.integers(0, 3), st.sampled_from(value_kinds)).flatmap(
    lambda nv: st.lists(
        st.lists(nv[1], min_size=nv[0], max_size=nv[0]), min_size=nv[0], max_size=nv[0]
    )
)
matrix_dicts = st.one_of(
    st.fixed_dictionaries(
        {
            "n": st.integers(-1, 4) | json_values,
            "entries": st.lists(st.lists(values_text | json_values, max_size=4), max_size=4)
            | json_values,
        }
    ),
    square_rows.map(lambda rows: {"n": len(rows), "entries": rows}),
)

matrix_text = st.one_of(
    st.lists(st.lists(value_like, min_size=1, max_size=4).map(" ".join), max_size=5),
    square_rows.map(lambda rows: [" ".join(row) for row in rows]),
).map("\n".join)
# JSON integer literals of up to 10^4 digits, as an order or an entry
long_json_int = st.tuples(st.sampled_from(["", "-"]), st.integers(1, 10**4)).map(
    lambda drawn: drawn[0] + "1" + "0" * drawn[1]
)
file_bytes = st.one_of(
    st.binary(max_size=200),
    long_json_int.map(lambda d: '{"n": %s, "entries": [["0"]]}' % d).map(str.encode),
    long_json_int.map(lambda d: '{"n": 1, "entries": [[%s]]}' % d).map(str.encode),
    st.lists(matrix_text, max_size=3).map(lambda blocks: "\n\n".join(blocks).encode()),
    st.one_of(matrix_dicts, st.lists(matrix_dicts, max_size=3), json_values).map(
        lambda data: json.dumps(data).encode()
    ),
)


@settings(max_examples=300)
@given(values_text)
def test_parse_value_returns_fraction_or_value_error(text):
    try:
        value = parse_value(text)
    except ValueError:
        return
    assert isinstance(value, Fraction)


@settings(max_examples=200)
@given(st.one_of(json_values, matrix_dicts))
def test_from_json_dict_raises_only_documented_errors(data):
    try:
        matrix = FuzzyMatrix.from_json_dict(data)
    except (ValueError, TypeError):
        return
    assert isinstance(matrix, FuzzyMatrix)


def _run(argv, allowed=(0, 1, EXIT_MALFORMED), wall_bound_s=WALL_BOUND_S):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments themselves
            code = exc.code
    elapsed = time.perf_counter() - start
    assert elapsed < wall_bound_s, f"{argv} took {elapsed:.2f}s"
    assert code in allowed, (argv, code, err.getvalue())
    lines = err.getvalue().splitlines()
    if argv[0] in ("classify", "signature", "equivalent"):
        assert len(lines) <= 1 and len(err.getvalue().encode()) < STDERR_BYTE_BOUND, lines
    if code == EXIT_MALFORMED:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    if code == EXIT_INFEASIBLE:
        assert len(lines) == 1 and lines[0].startswith("infeasible job: "), lines
        assert len(err.getvalue().encode()) < STDERR_BYTE_BOUND, lines


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(file_bytes, file_bytes)
def test_cli_on_arbitrary_files_ends_in_documented_exit(tmp_path, first, second):
    paths = {}
    for name, data in (("a", first), ("b", second)):
        for suffix in (".txt", ".json"):
            path = tmp_path / f"{name}{suffix}"
            path.write_bytes(data)
            paths[name + suffix] = str(path)
    for suffix in (".txt", ".json"):
        a, b = paths["a" + suffix], paths["b" + suffix]
        _run(["classify", "--input", a])
        _run(["signature", "--input", a])
        _run(["equivalent", a, b])


# Integer arguments for the commands that read no file.  Each drawn job is
# refused before any work (exit 3), rejected as a usage error (exit 2), or
# accepted and cheap: nested summation to n = 8, or to n = 16 for k <= 3;
# closed-form tables, one row sweep each, to n = 34; totals and sequences by
# the closed form to the digit limit's n = 38; enumeration under a ceiling of
# at most 10^5 chains, or of up to MAX_DIGITS digits over at most 6 cells;
# jobs of no chain; and single chains.  Sizes of up to MAX_DIGITS digits, as
# many as an argument may have, reach every bound far past any float.  The
# explicit examples sit on both sides of each refusal boundary; the slowest
# of them, `table --max-n 34 --format json`, takes about 2 s.
INTEGER_WALL_BOUND_S = 5.0
INTEGER_EXIT_CODES = (0, EXIT_USAGE, EXIT_INFEASIBLE)


def _arg(flag, values):
    return values.map(lambda v: [flag, str(v)])


def _opt(flag, values):
    return st.one_of(st.just([]), _arg(flag, values))


def _cat(*parts):
    """One argv: the words of each drawn part, in order."""
    return st.tuples(*parts).map(lambda drawn: [word for part in drawn for word in part])


roots = st.sampled_from([[], ["--root", "O"], ["--root", "J"]])
naive = st.just(["--method", "naive"])
fast = st.sampled_from([[], ["--method", "auto"], ["--method", "ie"]])
any_method = st.one_of(naive, fast)
huge = st.integers(39, 10**4)


def digits(fewest):
    """Integers of fewest to MAX_DIGITS decimal digits."""
    return st.integers(fewest, MAX_DIGITS).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1))


signed = st.tuples(st.sampled_from([1, -1]), digits(1)).map(lambda sv: sv[0] * sv[1])

count_argv = st.one_of(
    _cat(st.just(["count"]), _arg("--n", st.integers(-2, 8)), _opt("--k", st.integers(-3, 70)),
         roots, any_method),
    _cat(st.just(["count"]), _arg("--n", st.integers(9, 38)), roots, fast),
    # nested summation is refused from n = 17, for k in 0..m
    _cat(st.just(["count"]), _arg("--n", st.integers(14, 18)), _arg("--k", st.integers(-2, 3)),
         roots, naive),
    # the digit limit: k = m is printable at n = 38, not at n = 39
    st.integers(35, 41).flatmap(
        lambda n: _cat(st.just(["count", "--n", str(n)]),
                       _arg("--k", st.integers(n * n - 2, n * n + 1)), roots, fast)
    ),
    _cat(st.just(["count"]), _arg("--n", huge), _opt("--k", st.integers(-2, 3)), roots,
         any_method),
    # orders of up to MAX_DIGITS digits: each per-k count is cheap to compute
    # or refused by its lower bound, and nested summation is refused past 256
    # cells but for a k outside 0..m
    _cat(st.just(["count"]), _arg("--n", digits(2)),
         _opt("--k", st.one_of(st.integers(-2, 3), signed)), roots, fast),
    _cat(st.just(["count"]), _arg("--n", digits(3)), _opt("--k", signed), roots, naive),
)


def _max_n(command):
    def sized(values, methods):
        return _cat(st.just([command]), _arg("--max-n", values), methods)

    return st.one_of(
        sized(st.integers(-2, 9), any_method),
        sized(st.integers(10, 34), fast),
        sized(st.integers(17, 10**4), naive),
        sized(huge, fast),
        sized(digits(3), any_method),
    )


b_file = st.sampled_from([[], ["--b-file"]])
table_argv = st.one_of(
    _cat(_max_n("table"), roots, st.sampled_from([[], ["--format", "json"]])),
    _cat(_max_n("sequence"), b_file),
    # a sequence builds no rows, so it is cheap up to the digit limit
    _cat(st.just(["sequence"]), _arg("--max-n", st.integers(21, 38)), fast, b_file),
)
# mostly orders small enough to enumerate, the rest up to 10^6 cells, whose
# costly projections are refused by a lower bound without exact arithmetic
cells = st.one_of(st.integers(-3, 12), st.integers(-3, 2000), st.integers(-3, 10**6))
enumerate_flags = st.sets(st.sampled_from(["--list", "--labels", "--group-by-sizes"])).map(sorted)
enumerate_argv = st.one_of(
    _cat(
        st.just(["enumerate"]), _arg("--m", cells), _arg("--k", cells), roots, enumerate_flags,
        _arg("--ceiling", st.integers(-3, 10**5)),
    ),
    # any ceiling: from 10^5 cells on, every job of a chain or more but a single
    # chain has more than 10^4300 chains
    _cat(
        st.just(["enumerate"]), _arg("--m", st.one_of(st.integers(-3, 6), digits(6))),
        _arg("--k", st.one_of(st.integers(-3, 8), signed)), roots, enumerate_flags,
        _opt("--ceiling", st.one_of(st.integers(-3, 10**5), digits(1))),
    ),
)
lattice_argv = _cat(
    st.just(["lattice"]),
    _arg("--m", st.one_of(st.integers(-3, 12), st.integers(17, 10**6), digits(3))),
    st.sampled_from([[], ["--format", "dot"], ["--format", "json"]]),
)


# The caller's digit limit: the CLI applies its own, so none changes an outcome.
caller_limits = st.sampled_from([0, 640, 4300])


def _run_under_limit(argv, limit):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        _run(argv, INTEGER_EXIT_CODES, INTEGER_WALL_BOUND_S)
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(previous)


@settings(max_examples=60)
@given(count_argv, caller_limits)
@example(["count", "--n", "16", "--k", "1", "--method", "naive"], 4300)
@example(["count", "--n", "17", "--k", "1", "--method", "naive"], 4300)
@example(["count", "--n", "38", "--k", "1444"], 640)
@example(["count", "--n", "38", "--root", "J"], 640)
@example(["count", "--n", "39", "--k", "1521"], 0)
@example(["count", "--n", "2000", "--k", "1"], 0)
def test_count_on_integer_arguments(argv, limit):
    _run_under_limit(argv, limit)


@settings(max_examples=25)
@given(table_argv, caller_limits)
@example(["table", "--max-n", "17", "--method", "naive"], 4300)
@example(["table", "--max-n", "34", "--format", "json", "--root", "J"], 0)
@example(["sequence", "--max-n", "38", "--b-file"], 0)
@example(["sequence", "--max-n", "39"], 0)
def test_table_and_sequence_on_integer_arguments(argv, limit):
    _run_under_limit(argv, limit)


@settings(max_examples=40)
@given(enumerate_argv)
@example(["enumerate", "--m", "2000", "--k", "2000", "--ceiling", "100000"])
@example(["enumerate", "--m", "100000000", "--k", "1"])
@example(["enumerate", "--m", "30000000", "--k", "30"])
@example(["enumerate", "--m", "12000", "--k", "12000"])
@example(["enumerate", "--m", "1000000", "--k", "0", "--root", "J", "--list"])
@example(["enumerate", "--m", "4", "--k", "2", "--ceiling", "110"])
@example(["enumerate", "--m", "4", "--k", "2", "--ceiling", "109"])
def test_enumerate_on_integer_arguments(argv):
    _run(argv, INTEGER_EXIT_CODES, INTEGER_WALL_BOUND_S)


@settings(max_examples=20)
@given(lattice_argv)
@example(["lattice", "--m", "16"])
@example(["lattice", "--m", "17"])
def test_lattice_on_integer_arguments(argv):
    _run(argv, INTEGER_EXIT_CODES, INTEGER_WALL_BOUND_S)
