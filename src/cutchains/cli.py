"""Command-line interface: counting, enumeration, classification, lattice export.

Exit codes: 0 success (or "equivalent"), 1 inequivalent, 2 usage error,
3 infeasible job, 4 malformed input file.  A job is sized before it runs: a
count by counting's rules under MAX_DIGITS and NAIVE_MAX_CELLS, a chain walk
under its ceiling and MAX_CHAIN_CEILING.

Each command imports only the library modules it calls, when it runs:
counting for count, table and sequence; enumeration (and with it counting) for
enumerate and lattice; cuts for classify, signature and equivalent.  matrices
is imported by this module and by every other.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import TYPE_CHECKING, Iterable, Iterator

from .matrices import MAX_DIGITS, FuzzyMatrix, InfeasibleJobError, _int_text

if TYPE_CHECKING:
    from .cuts import Classification

EXIT_OK = 0
EXIT_INEQUIVALENT = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_MALFORMED = 4


# Largest input file read, in bytes.  A 4 MiB text corpus of 32,000 order-6
# matrices with short entries (".dd", "0", "1") takes `classify` 5.1-5.6 s and
# 95 MiB peak RSS to parse (most of the time) and group, and is then refused by
# MAX_SIGNATURE_CELLS before any cut is built; so is one of 35,000 with
# three-digit entries (".ddd", "0", "1"), in 3.8-4.9 s and 103 MiB.  One of
# 57,456 order-6 0/1 matrices, as many classes of one or two cuts, is served in
# 7.3-9.8 s and 148 MiB, writing 55 MB.  One of 1,398,101 order-1 0/1
# matrices, two classes, is served in 11-15 s and 292 MiB, nearly all of it
# parsing and grouping the members (Python 3.11, one process).
MAX_INPUT_BYTES = 4 * 2**20

# Largest cell count (n = 16) counted by nested summation, whose table is O(m^3)
# big-int operations: `count --n 16 --method naive` takes about 1.7 s and
# `--n 22` about 24 s (Python 3.11, one process).
NAIVE_MAX_CELLS = 256

# Largest report of `classify` and `signature`, in cells: the one size rule of
# both.  A class's signature has one n^2-bit cut per distinct positive value,
# and one more when no entry is 1, so a corpus whose classes hold more than
# this in all is refused, counted off their rank patterns before any cut is
# built; a member over the limit puts its own class over it, and `signature`
# classifies the one-member corpus of its matrix.  An order-56 matrix of 3,136
# distinct values (9.8 million cells) takes `signature` 0.15-0.20 s and 46 MiB
# peak RSS for 9.8 MB of output.  The input with the most cells, a 4 MiB
# order-1448 0/1 text matrix, takes `signature` 2.1-2.3 s and `classify`
# 2.9-3.0 s, each 258 MiB peak RSS (three alternating runs of each, Python
# 3.11, one process).
MAX_SIGNATURE_CELLS = 10**7

# Most chains of an `enumerate` job, whatever its --ceiling: a ceiling bounds
# what a user asks for, this limit what can finish.  Counting walks 2.7-13
# million chains a second (the longer the chains, the slower), a labelled
# listing 0.9-1.1 million lines.  The slowest job within it,
# `enumerate --m 10 --k 8 --list --labels` (66,528,000 chains of nine
# supports), took 74.5 s, `--m 26 --k 0 --list --labels` (67,108,864 chains)
# 72.4 s and `--m 26 --k 1 --root O` 67.1 s (Python 3.11, one run each in
# one process on two shared cores, written to /dev/null).
MAX_CHAIN_CEILING = 10**8


class MalformedInputError(Exception):
    pass


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _emit(text: str | Iterable[str], output: str | None) -> None:
    """Write text, or an iterable of text chunks as they come, to stdout or a file.

    Failing to open, write or close the target is a usage error, as a ValueError.
    """
    chunks = [text] if isinstance(text, str) else text
    if output is None and sys.stdout is None:
        # started with stdout closed: the interpreter then sets no stream at all
        raise ValueError("cannot write stdout: it is closed")
    try:
        if output is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()  # fails here, not as the interpreter exits
        else:
            with open(output, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
    except OSError as exc:
        if output is None:
            # the interpreter flushes stdout again as it exits: send what is left
            # of the buffer to the null device, so that flush cannot fail as well
            _to_null_device(sys.stdout)
        raise ValueError(f"cannot write {output or 'stdout'}: {exc}") from exc


def _report(line: str) -> None:
    """Write one error line to stderr, or drop it if stderr is closed or its
    pipe's reader has gone: the exit code stands either way."""
    if sys.stderr is None:  # started with stderr closed: print would write to stdout
        return
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _to_null_device(sys.stderr)  # as _emit, for stdout


def _to_null_device(stream) -> None:
    """Point stream's file descriptor at the null device, closing the one opened for it."""
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, stream.fileno())
    finally:
        os.close(null)


def _json_array_chunks(items: Iterable, margin: str = "") -> Iterator[str]:
    """The text of json.dumps(list(items), indent=2) + "\n", one chunk per item,
    with every line after the first indented by margin."""
    pad = margin + "  "  # an indent-2 array indents its items' lines by two spaces
    opener = "[\n" + pad
    for item in items:
        yield opener + json.dumps(item, indent=2).replace("\n", "\n" + pad)
        opener = ",\n" + pad
    yield "[]\n" if opener[0] == "[" else f"\n{margin}]\n"


def _table_csv_lines(rows: Iterable) -> Iterator[str]:
    """The CSV text of a count table, one line at a time."""
    yield "n,k,f_nk,f_n\n"
    for row in rows:
        total = f",{row.total}\n"  # one decimal conversion per row, not per k
        yield from (f"{row.n},{k},{value}{total}" for k, value in enumerate(row.counts))


def _table_json_chunks(rows: Iterable, root: str | None, max_n: int) -> Iterator[str]:
    """The JSON text of a count table, one chunk per row: json.dumps with indent=2
    of {"root", "max_n", "rows": [{"n", "counts", "total"}, ...]}, and a newline."""
    empty = json.dumps({"root": root, "max_n": max_n, "rows": []}, indent=2)
    yield empty.removesuffix("[]\n}")
    rows = ({"n": row.n, "counts": list(row.counts), "total": row.total} for row in rows)
    yield from _json_array_chunks(rows, "  ")
    yield "}\n"


def _read_input(path: str, fmt: str, what: str, parse_json, parse_text):
    """Read a UTF-8 input file and parse it as JSON or text, by fmt or the .json suffix.

    Every failure to read, decode or parse it is a MalformedInputError, and so
    is a file over MAX_INPUT_BYTES, which is refused before it is read in full.
    """
    too_large = MalformedInputError(
        f"{path} is larger than the {MAX_INPUT_BYTES}-byte limit for input files"
    )
    try:
        with open(path, "rb") as handle:
            if os.fstat(handle.fileno()).st_size > MAX_INPUT_BYTES:
                raise too_large
            # a pipe or device reports size 0, so the read is bounded as well, in
            # bytes: a text-mode read would count characters
            data = handle.read(MAX_INPUT_BYTES + 1)
        if len(data) > MAX_INPUT_BYTES:
            raise too_large
        # universal newlines, as a text-mode read gives them
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        del data  # not held while the text is parsed
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    use_json = fmt == "json" or (fmt == "auto" and path.endswith(".json"))
    try:
        # a number literal reaches parse_value as its exact text, not as a float
        if use_json:
            return parse_json(json.loads(text, parse_float=str, parse_int=_json_int))
        return parse_text(text)
    except (ValueError, TypeError, RecursionError) as exc:  # deep JSON nesting recurses
        raise MalformedInputError(f"malformed {what} file {path}: {exc}") from exc


def _json_int(text: str) -> int:
    """A JSON integer literal, refused above MAX_DIGITS digits in this program's
    own words: int()'s message would advise raising the interpreter's limit."""
    digits = len(text) - text.startswith("-")
    if digits > MAX_DIGITS:
        raise ValueError(f"a JSON integer of {digits} digits is above the limit of {MAX_DIGITS}")
    return int(text)


def _load_matrix(path: str, fmt: str) -> FuzzyMatrix:
    return _read_input(path, fmt, "matrix", FuzzyMatrix.from_json_dict, FuzzyMatrix.parse_text)


def _corpus_from_json(data) -> list[FuzzyMatrix]:
    if not isinstance(data, list):
        raise ValueError("corpus JSON must be an array of matrix objects")
    return [FuzzyMatrix.from_json_dict(item) for item in data]


def _corpus_from_text(text: str) -> list[FuzzyMatrix]:
    # each run of lines with a token is one matrix, built from its token rows
    runs = itertools.groupby(map(str.split, text.splitlines()), key=bool)
    return [FuzzyMatrix.from_rows(rows) for filled, rows in runs if filled]


def _load_corpus(path: str, fmt: str) -> list[FuzzyMatrix]:
    return _read_input(path, fmt, "corpus", _corpus_from_json, _corpus_from_text)


def _check_count_job(m: int, method: str, k: int | None = None) -> None:
    """Refuse a job too slow for its method, or a total that may be too long to
    print.  No k outside 0..m is refused: it counts no chain by any method."""
    from . import counting

    if k is not None and not 0 <= k <= m:
        return
    if counting._pick_method(method) == "naive" and m > NAIVE_MAX_CELLS:
        raise InfeasibleJobError(
            f"nested summation over m={_int_text(m)} cells is above its limit of "
            f"{NAIVE_MAX_CELLS} cells"
        )
    if k is None:
        counting._check_total_digits(m, MAX_DIGITS)


def _cmd_count(args) -> int:
    from . import counting

    m = args.n * args.n
    _check_count_job(m, args.method, args.k)
    if args.k is None:
        value = counting.total_count(args.n, args.root, method=args.method)
    else:
        limit = f"the limit of {MAX_DIGITS} digits for printing an integer"
        value = counting._count_within(m, args.k, args.root, 10**MAX_DIGITS - 1, limit)
        if counting._pick_method(args.method) == "naive":
            if args.root is None:
                value = counting.chain_count(m, args.k)
            else:
                value = counting.chain_count_rooted(m, args.k, args.root)
    _emit(f"{value}\n", None)
    return EXIT_OK


def _cmd_table(args) -> int:
    from . import counting

    _check_count_job(args.max_n * args.max_n, args.method)
    # written as the sweep makes them, so one row is held at a time
    rows = counting._table_rows(args.max_n, args.root, args.method)
    if args.format == "csv":
        _emit(_table_csv_lines(rows), args.output)
    else:
        _emit(_table_json_chunks(rows, args.root, args.max_n), args.output)
    return EXIT_OK


def _cmd_sequence(args) -> int:
    from . import counting

    _check_count_job(args.max_n * args.max_n, args.method)
    pairs = counting.sequence(args.max_n, method=args.method)
    if args.b_file:
        text = "".join(f"{n} {value}\n" for n, value in pairs)
    else:
        text = "".join(f"{value}\n" for _, value in pairs)
    _emit(text, args.output)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    from . import counting, enumeration

    ceiling = enumeration.DEFAULT_CHAIN_CEILING if args.ceiling is None else args.ceiling
    if args.list and args.group_by_sizes:
        raise ValueError("--list and --group-by-sizes cannot be combined")
    if args.labels and not args.list:
        raise ValueError("--labels applies only to --list")
    if ceiling > MAX_CHAIN_CEILING:
        # refused past the ceiling first, in the library's words, then past this limit
        enumeration._check_job(args.m, args.k, args.root, ceiling)
        limit = f"the limit of {MAX_CHAIN_CEILING} chains for enumerate"
        counting._count_within(args.m, args.k, args.root, MAX_CHAIN_CEILING, limit)
        ceiling = MAX_CHAIN_CEILING
    if args.list:
        lines = enumeration.chain_lines(
            args.m, args.k, args.root, labeled=args.labels, ceiling=ceiling
        )
        # chain_lines has accepted the job, so a refused one leaves no file
        _emit((line + "\n" for line in lines), args.output)
        return EXIT_OK
    if args.group_by_sizes:
        groups = enumeration.group_by_size_vector(args.m, args.k, args.root, ceiling=ceiling)
        text = "".join(
            f"{','.join(map(str, sizes))}: {count}\n" for sizes, count in groups.items()
        )
        _emit(text, args.output)
        return EXIT_OK
    count = enumeration.count_chains(args.m, args.k, args.root, ceiling=ceiling)
    _emit(f"{count}\n", args.output)
    return EXIT_OK


def _classes(corpus: list[FuzzyMatrix], path: str) -> Classification:
    """classify_corpus(corpus), read from path, in its two steps, with the
    report bounded between them: each class's k + 1 cuts are known from its
    rank pattern, so no cut is built for a refused corpus."""
    from . import cuts

    try:
        order, by_pattern = cuts._group_corpus(corpus)
    except ValueError as exc:
        raise MalformedInputError(f"malformed corpus file {path}: {exc}") from exc
    cells = sum(pattern.k + 1 for pattern in by_pattern) * order**2
    if cells > MAX_SIGNATURE_CELLS:
        raise InfeasibleJobError(
            f"the class signatures of an order-{order} corpus have {cells} cells "
            f"in all, above the limit of {MAX_SIGNATURE_CELLS}"
        )
    return cuts._build_classes(order, by_pattern)


def _cmd_classify(args) -> int:
    result = _classes(_load_corpus(args.input, args.input_format), args.input)
    # streamed one class at a time, so the report is never held whole
    _emit(_json_array_chunks(result._json_dicts()), args.output)
    return EXIT_OK


def _cmd_equivalent(args) -> int:
    from . import cuts

    a = _load_matrix(args.file_a, args.input_format)
    b = _load_matrix(args.file_b, args.input_format)
    if a.order != b.order:
        raise MalformedInputError(f"order mismatch: {a.order} vs {b.order}")
    same = cuts.equivalent_direct(a, b)
    _emit("equivalent\n" if same else "inequivalent\n", None)
    return EXIT_OK if same else EXIT_INEQUIVALENT


def _cmd_signature(args) -> int:
    # the one class of a one-member corpus, bounded and re-checked as classify's are
    (cls,) = _classes([_load_matrix(args.input, args.input_format)], args.input).classes
    _emit(json.dumps(cls.signature.to_json_dict(), indent=2) + "\n", args.output)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    from . import enumeration

    diagram = enumeration.hasse_export(args.m)
    _emit(diagram.dot_lines() if args.format == "dot" else diagram.json_chunks(), args.output)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose --help text is written as every other output is.

    argparse ignores a failed write of its help; this one reports it as a
    usage error, as a ValueError.
    """

    def print_help(self, file=None) -> None:
        if file is None:
            _emit(self.format_help(), None)
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cutchains",
        description="Count, enumerate, and classify fuzzy matrices by their cut chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="print an exact chain/class count")
    p.add_argument("--n", type=_nonneg, required=True, help="matrix order")
    p.add_argument("--k", type=int, default=None, help="chain length (omit for the total)")
    p.add_argument("--root", choices=["O", "J"], default=None)
    p.add_argument("--method", choices=["auto", "naive", "ie"], default="auto")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("table", help="per-k counts and totals for n = 0..max-n")
    p.add_argument("--max-n", type=_nonneg, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--root", choices=["O", "J"], default=None)
    p.add_argument("--method", choices=["auto", "naive", "ie"], default="auto")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("sequence", help="emit the class-count sequence f_0..f_max_n")
    p.add_argument("--max-n", type=_nonneg, required=True)
    p.add_argument("--b-file", action="store_true", help='emit "n f_n" pairs')
    p.add_argument("--method", choices=["auto", "naive", "ie"], default="auto")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("enumerate", help="brute-force chain enumeration")
    p.add_argument("--m", type=_nonneg, required=True, help="number of cells")
    p.add_argument("--k", type=int, required=True, help="chain length")
    p.add_argument("--root", choices=["O", "J"], default=None)
    p.add_argument("--list", action="store_true", help="print one chain per line")
    p.add_argument("--labels", action="store_true", help="label components A_s^{cells}")
    p.add_argument("--group-by-sizes", action="store_true")
    # None stands for enumeration.DEFAULT_CHAIN_CEILING, read when the command runs
    p.add_argument("--ceiling", type=_nonneg, default=None, help="max projected chains")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("classify", help="partition a fuzzy-matrix corpus into classes")
    p.add_argument("--input", required=True)
    p.add_argument("--input-format", choices=["auto", "text", "json"], default="auto")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("equivalent", help="exit 0 if the two matrices are equivalent, 1 if not")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--input-format", choices=["auto", "text", "json"], default="auto")
    p.set_defaults(func=_cmd_equivalent)

    p = sub.add_parser("signature", help="print a matrix's canonical cut signature")
    p.add_argument("--input", required=True)
    p.add_argument("--input-format", choices=["auto", "text", "json"], default="auto")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_signature)

    p = sub.add_parser("lattice", help="export the support lattice covering relation")
    p.add_argument("--m", type=_nonneg, required=True, help="number of cells")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_lattice)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    caller_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InfeasibleJobError as exc:
        _report(f"infeasible job: {exc}")
        return EXIT_INFEASIBLE
    except MalformedInputError as exc:
        _report(f"error: {exc}")
        return EXIT_MALFORMED
    except ValueError as exc:
        # e.g. conflicting enumerate flags, or an output or help text that cannot be written
        _report(f"error: {exc}")
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(caller_limit)


if __name__ == "__main__":
    sys.exit(main())
