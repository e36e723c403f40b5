"""Fuzzing of everything that reads outside input: values, matrix JSON and the CLI.

Each property states the documented contract for arbitrary input: a parse
either succeeds or raises the documented exception, and a CLI run ends in a
documented exit code, within a time bound, with one error line and no
traceback.
"""

import contextlib
import io
import json
import time
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cutchains import FuzzyMatrix, parse_value
from cutchains.cli import EXIT_MALFORMED, main

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
square_rows = st.tuples(st.integers(0, 3), st.sampled_from([valid_value, value_like])).flatmap(
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
file_bytes = st.one_of(
    st.binary(max_size=200),
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


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert elapsed < WALL_BOUND_S, f"{argv} took {elapsed:.2f}s"
    assert code in (0, 1, EXIT_MALFORMED), (argv, code, err.getvalue())
    if code == EXIT_MALFORMED:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


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
