"""The four workloads: the operations each times, how each output is checked,
and the CLI commands each runs in a subprocess.

Sizes are chosen so that one round (every operation once, every CLI command
once and one set-up sample) takes one to three seconds on a 2-core machine,
which gives 8 or more rounds in a 25 s run.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from corpora import Corpus, distinct_corpus, shared_corpus
from reference import (
    Stirling,
    partition_by_rank_pattern,
    rank_pattern,
    signature_cuts,
    size_vector_groups,
)

# sequence: the paper's table and the class-count sequence.
TABLE_MAX_N = 4  # per-k and rooted tables, by nested summation (m <= 16)
BY_K_CELLS = (17, 18, 19)  # chain_counts_by_k beyond the table, ~2^m size vectors each
SEQUENCE_MAX_N = 18  # closed-form sequence up to m = 324 cells

# enumerate: the ground-truth path.
COUNT_JOB = (8, 3)  # count_chains(m, k): 213444 chains
GROUP_JOB = (8, 2)  # group_by_size_vector(m, k): 52670 chains in 84 groups
LINES_JOB = (8, 2)  # labelled chain_lines(m, k), also listed by the CLI (~2.5 MB)
ROOTED_JOB = (9, 3)  # O- and J-rooted count_chains(m, k): 204630 chains each
HASSE_CELLS = 12  # 4096 supports, 24576 covering edges
# Refused by the pre-sizing, which projects the unrooted count (527345) for a
# rooted job whose true size is 2^12 - 1 = 4095.  Counted as failed until
# the sizing is mended; its output is checked once it succeeds.
REFUSED_JOB = (12, 1, "O", 10_000)

# Probes supply chains_per_s and matrices_per_s on workloads where that layer
# is otherwise idle; they are timed apart and left out of pass_s.
CHAINS_PROBE = (7, 3)  # count_chains(m, k): 35406 chains
MATRICES_PROBE = dict(order=3, patterns=12, members=5)  # 60 matrices


class CheckError(Exception):
    """An output of the program differs from the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class Op:
    """One timed call into the program.

    `check` validates the first result against the reference (raising on any
    mismatch); every later result must equal it.  `tally` gives the work a
    result stands for, by counter name (chains produced, matrices classified,
    values parsed).
    """

    name: str
    span: str  # the layer the call is timed under in a traced run
    call: Callable[[], Any]
    check: Callable[[Any], None]
    tally: Callable[[Any], dict[str, int]] = lambda result: {}
    probe: bool = False
    refusal: type[Exception] | None = None  # the known fault this op runs into


@dataclass
class CliCommand:
    """`python3 -m cutchains <args> --output <file>`; the file's text is checked."""

    name: str
    args: list[str]
    check: Callable[[str], None]


@dataclass
class Workload:
    ops: list[Op]
    cli: list[CliCommand]
    first_calls: str  # run in the set-up sample after the import: lazy set-up
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------- sequence


def _check_table(table, stirling: Stirling, max_n: int, root: str | None) -> None:
    require(table.root == root and len(table.rows) == max_n + 1, "table shape")
    for row in table.rows:
        m = row.n * row.n
        want = stirling.rooted_by_k(m) if root else stirling.chains_by_k(m)
        require(list(row.counts) == want, f"table row n={row.n} root={root}")
        total = stirling.rooted_total(m) if root else stirling.total(m)
        require(row.total == total, f"table total n={row.n} root={root}")


def _check_csv(text: str, stirling: Stirling, max_n: int) -> None:
    lines = text.splitlines()
    require(lines[0] == "n,k,f_nk,f_n", "CSV header")
    want = [
        (n, k, value, stirling.total(n * n))
        for n in range(max_n + 1)
        for k, value in enumerate(stirling.chains_by_k(n * n))
    ]
    got = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    require(got == want, "CSV table rows")


def _check_b_file(text: str, stirling: Stirling, max_n: int) -> None:
    want = "".join(f"{n} {stirling.total(n * n)}\n" for n in range(max_n + 1))
    require(text == want, "b-file sequence")


def sequence_workload(cc, seed: int) -> Workload:
    counting = cc.counting
    cells = {n * n for n in range(SEQUENCE_MAX_N + 1)} | set(BY_K_CELLS)
    stirling = Stirling(cells)

    def by_k_op(m: int) -> Op:
        def check(counts):
            require(counts == stirling.chains_by_k(m), f"chain_counts_by_k({m})")

        return Op(f"chain_counts_by_k({m})", "counting.nested",
                  lambda: counting.chain_counts_by_k(m), check)

    def rooted_op(root: str) -> Op:
        return Op(f"count_table({TABLE_MAX_N}, root={root})", "counting.rooted",
                  lambda: counting.count_table(TABLE_MAX_N, root=root),
                  lambda t: _check_table(t, stirling, TABLE_MAX_N, root))

    def check_sequence(pairs):
        want = [(n, stirling.total(n * n)) for n in range(SEQUENCE_MAX_N + 1)]
        require(pairs == want, "sequence totals")

    ops = [
        Op(f"count_table({TABLE_MAX_N}, naive)", "counting.nested",
           lambda: counting.count_table(TABLE_MAX_N, method="naive"),
           lambda t: _check_table(t, stirling, TABLE_MAX_N, None)),
        *(by_k_op(m) for m in BY_K_CELLS),
        rooted_op("O"),
        rooted_op("J"),
        Op(f"sequence({SEQUENCE_MAX_N}, ie)", "counting.ie",
           lambda: counting.sequence(SEQUENCE_MAX_N, method="ie"), check_sequence),
        chains_probe(cc),
        matrices_probe(cc, seed),
    ]
    cli = [
        CliCommand("table", ["table", "--max-n", str(TABLE_MAX_N)],
                   lambda text: _check_csv(text, stirling, TABLE_MAX_N)),
        CliCommand("sequence", ["sequence", "--max-n", str(SEQUENCE_MAX_N), "--method", "ie", "--b-file"],
                   lambda text: _check_b_file(text, stirling, SEQUENCE_MAX_N)),
    ]
    # The closed form's first call builds the shared Pascal rows up to m = 324.
    first = f"cutchains.count_table(1); cutchains.binomial({SEQUENCE_MAX_N ** 2}, 0)"
    return Workload(ops, cli, first)


# ---------------------------------------------------------------- enumerate

_LABEL = re.compile(r"A_(\d+)(?:\^\{([\d,]+)\})?$")


def label_mask(label: str, m: int) -> int:
    """The support a component label names; its size subscript must match its cells."""
    match = _LABEL.match(label)
    require(match is not None, f"malformed label {label!r}")
    size = int(match.group(1))
    if match.group(2) is None:
        require(size in (0, m), f"label {label!r} without cells")
        return (1 << m) - 1 if size == m else 0
    cells = [int(c) for c in match.group(2).split(",")]
    require(0 < size < m and len(cells) == size, f"label {label!r} size")
    require(cells == sorted(set(cells)) and 1 <= cells[0] and cells[-1] <= m, f"label {label!r} cells")
    return sum(1 << (m - c) for c in cells)


def _check_chain_lines(lines: list[str], m: int, k: int, count: int) -> None:
    """Distinct strict chains in lexicographic order, with consistent labels."""
    require(len(lines) == count, f"listing has {len(lines)} chains, want {count}")
    previous: tuple[int, ...] = ()
    for line in lines:
        masks = tuple(label_mask(part, m) for part in line.split(" < "))
        require(len(masks) == k + 1, f"chain length in {line!r}")
        for a, b in zip(masks, masks[1:]):
            require(a & ~b == 0 and a != b, f"not strictly increasing: {line!r}")
        # mask order is row-major bitstring order, so this is lexicographic
        require(masks > previous, f"out of order or repeated: {line!r}")
        previous = masks


def _check_cover(a: str, b: str, m: int) -> None:
    x, y = int(a, 2), int(b, 2)
    require(len(a) == len(b) == m and x & ~y == 0 and (x ^ y).bit_count() == 1,
            f"edge {a} -> {b} does not add one cell")


def _check_hasse(output: tuple[str, str], m: int) -> None:
    dot, js = output
    nodes, edges = 1 << m, m << (m - 1)
    lines = dot.splitlines()
    require(lines[:2] == ["digraph support_lattice {", "  rankdir=BT;"] and lines[-1] == "}", "DOT frame")
    node_lines, edge_lines = lines[2 : 2 + nodes], lines[2 + nodes : -1]
    require(len(edge_lines) == edges, f"DOT has {len(edge_lines)} edges, want {edges}")
    seen = set()
    for line in node_lines:
        bits, label = re.fullmatch(r'  "([01]+)" \[label="([^"]+)"\];', line).groups()
        require(label_mask(label, m) == int(bits, 2), f"DOT label {label} for {bits}")
        seen.add(bits)
    require(len(seen) == nodes, "DOT nodes are not all supports")
    for line in edge_lines:
        a, b = re.fullmatch(r'  "([01]+)" -> "([01]+)";', line).groups()
        _check_cover(a, b, m)
    data = json.loads(js)
    require(data["m"] == m and len(data["nodes"]) == nodes, "JSON nodes")
    require({n["bits"] for n in data["nodes"]} == seen, "JSON nodes differ from DOT")
    for n in data["nodes"]:
        require(label_mask(n["label"], m) == int(n["bits"], 2), f"JSON label {n['label']}")
    require(sum(len(v) for v in data["adjacency"].values()) == edges, "JSON edge count")
    for a, targets in data["adjacency"].items():
        for b in targets:
            _check_cover(a, b, m)


def _chain_count(result) -> dict[str, int]:
    return {"enumeration.chains": result}


def enumerate_workload(cc, seed: int) -> Workload:
    enumeration = cc.enumeration
    stirling = Stirling({COUNT_JOB[0], LINES_JOB[0], ROOTED_JOB[0], REFUSED_JOB[0]})

    def count_op(m: int, k: int, root: str | None = None) -> Op:
        want = (stirling.rooted_by_k(m) if root else stirling.chains_by_k(m))[k]

        def check(count):
            require(count == want, f"count_chains({m}, {k}, {root}) = {count}, want {want}")

        return Op(f"count_chains({m}, {k}, {root})", "enumeration.count",
                  lambda: enumeration.count_chains(m, k, root), check, _chain_count)

    gm, gk = GROUP_JOB

    def check_groups(groups):
        require(groups == size_vector_groups(gm, gk), "size-vector groups")
        require(list(groups) == sorted(groups), "groups not in size-vector order")

    lm, lk = LINES_JOB
    lines_count = stirling.chains_by_k(lm)[lk]
    lines_text: list[str] = []

    def check_lines(lines):
        _check_chain_lines(lines, lm, lk, lines_count)
        lines_text.append("".join(line + "\n" for line in lines))

    def hasse():
        diagram = enumeration.hasse_export(HASSE_CELLS)
        return diagram.to_dot(), json.dumps(diagram.to_json_dict(), indent=2)

    rm, rk, rroot, ceiling = REFUSED_JOB

    def check_refused(count):
        require(count == stirling.rooted_by_k(rm)[rk], f"refused job counted {count}")

    ops = [
        count_op(*COUNT_JOB),
        Op(f"group_by_size_vector({gm}, {gk})", "enumeration.group",
           lambda: enumeration.group_by_size_vector(gm, gk), check_groups,
           lambda groups: {"enumeration.chains": sum(groups.values())}),
        Op(f"chain_lines({lm}, {lk}, labeled)", "enumeration.lines",
           lambda: list(enumeration.chain_lines(lm, lk, labeled=True)), check_lines,
           lambda lines: {"enumeration.chains": len(lines)}),
        count_op(*ROOTED_JOB, "O"),
        count_op(*ROOTED_JOB, "J"),
        Op(f"hasse_export({HASSE_CELLS})", "enumeration.hasse", hasse,
           lambda out: _check_hasse(out, HASSE_CELLS)),
        Op(f"count_chains({rm}, {rk}, {rroot}, ceiling={ceiling})", "enumeration.count",
           lambda: enumeration.count_chains(rm, rk, rroot, ceiling=ceiling), check_refused,
           _chain_count, refusal=enumeration.InfeasibleJobError),
        matrices_probe(cc, seed),
    ]

    def check_cli(text):
        require(text.endswith("\n"), "CLI listing does not end in a newline")
        _check_chain_lines(text.splitlines(), lm, lk, lines_count)
        require(not lines_text or text == lines_text[0], "CLI listing differs from chain_lines")

    cli = [CliCommand("enumerate", ["enumerate", "--m", str(lm), "--k", str(lk), "--list", "--labels"], check_cli)]
    first = "cutchains.count_chains(2, 1); cutchains.hasse_export(2)"
    return Workload(ops, cli, first)


# ---------------------------------------------------------------- classify


def _classes_from_result(result) -> list[dict]:
    return [
        {
            "members": list(c.members),
            "representative": list(c.representative.values()),
            "cuts": [cut.bits for cut in c.signature.cuts],
            "flags": (c.signature.order, c.signature.k, c.signature.o_rooted, c.signature.j_rooted),
        }
        for c in result.classes
    ]


def _classes_from_json(text: str) -> list[dict]:
    return [
        {
            "members": c["members"],
            "representative": [Fraction(v) for row in c["representative"]["entries"] for v in row],
            "cuts": c["signature"]["cuts"],
            "flags": (c["signature"]["n"], c["signature"]["k"], c["signature"]["o_rooted"], c["signature"]["j_rooted"]),
        }
        for c in json.loads(text)
    ]


def _check_classes(classes: list[dict], corpus: Corpus, keys: list[tuple]) -> None:
    """The classes partition the corpus by rank pattern, each with a faithful representative."""
    members = [i for c in classes for i in c["members"]]
    require(sorted(members) == list(range(len(keys))), "corpus indices not each in one class")
    require(sorted(tuple(c["members"]) for c in classes) == partition_by_rank_pattern(keys),
            "classes differ from the rank-pattern partition")
    order = []
    for c in classes:
        require(c["members"] == sorted(c["members"]), "members not ascending")
        key = keys[c["members"][0]]
        require(rank_pattern(c["representative"]) == key, f"representative of class {c['members'][:3]}")
        cuts = signature_cuts(corpus.values[c["members"][0]])
        require(c["cuts"] == cuts, f"signature cuts of class {c['members'][:3]}")
        flags = (corpus.order, len(cuts) - 1, "1" not in cuts[0], "0" not in cuts[-1])
        require(tuple(c["flags"]) == flags, f"signature flags of class {c['members'][:3]}")
        order.append((len(cuts), cuts))
    require(order == sorted(order), "classes not in canonical (k, cuts) order")


def _split_blocks(text: str) -> list[str]:
    return [block for block in re.split(r"\n\s*\n", text) if block.strip()]


def _parse_op(cc, corpus: Corpus) -> Op:
    matrices = cc.matrices
    if corpus.fmt == "json":
        def parse():
            return [matrices.FuzzyMatrix.from_json_dict(item) for item in json.loads(corpus.text)]
    else:
        def parse():
            return [matrices.FuzzyMatrix.parse_text(block) for block in _split_blocks(corpus.text)]

    def check(parsed):
        require([tuple(f.values()) for f in parsed] == list(corpus.values), "parsed values")
        require(all(f.order == corpus.order for f in parsed), "parsed orders")

    return Op(f"parse {corpus.fmt} corpus", "matrices.parse", parse, check,
              lambda parsed: {"matrices.values": sum(f.order * f.order for f in parsed)})


def _parsed(cc, corpus: Corpus) -> list:
    """The corpus parsed and checked once, before the clock starts."""
    parse = _parse_op(cc, corpus)
    parsed = parse.call()
    parse.check(parsed)
    return parsed


def _classify_op(cc, corpus: Corpus, parsed: list, name: str, probe: bool = False) -> Op:
    keys = corpus.keys()

    def check(result):
        require(result.order == corpus.order, "classification order")
        _check_classes(_classes_from_result(result), corpus, keys)

    return Op(name, "cuts.classify", lambda: cc.cuts.classify_corpus(parsed), check,
              lambda result: {"cuts.classes": len(result), "cuts.matrices": len(parsed)},
              probe=probe)


def classify_workload(cc, corpus: Corpus, work: Path) -> Workload:
    keys = corpus.keys()
    parsed = _parsed(cc, corpus)
    classification = cc.cuts.classify_corpus(parsed)
    serialized: list[str] = []

    def check_serialized(text):
        _check_classes(_classes_from_json(text), corpus, keys)
        serialized.append(text)

    def check_cli(text):
        _check_classes(_classes_from_json(text), corpus, keys)
        require(not serialized or text == serialized[0], "CLI output differs from to_json_list")

    path = work / f"corpus.{corpus.fmt}"
    path.write_text(corpus.text, encoding="utf-8")
    ops = [
        _parse_op(cc, corpus),
        _classify_op(cc, corpus, parsed, f"classify_corpus({len(parsed)})"),
        Op("to_json_list + json.dumps", "cuts.serialize",
           lambda: json.dumps(classification.to_json_list(), indent=2) + "\n", check_serialized),
        chains_probe(cc),
    ]
    cli = [CliCommand("classify", ["classify", "--input", str(path)], check_cli)]
    first = 'cutchains.classify_corpus([cutchains.FuzzyMatrix.parse_text("0 1/2\\n0.25 1")])'
    return Workload(ops, cli, first, notes={"corpus": corpus.report()})


# ---------------------------------------------------------------- probes


def chains_probe(cc) -> Op:
    m, k = CHAINS_PROBE
    want = Stirling({m}).chains_by_k(m)[k]

    def check(count):
        require(count == want, f"probe count_chains({m}, {k}) = {count}, want {want}")

    return Op(f"probe count_chains({m}, {k})", "enumeration.count",
              lambda: cc.enumeration.count_chains(m, k), check, _chain_count, probe=True)


def matrices_probe(cc, seed: int) -> Op:
    corpus = shared_corpus(seed, **MATRICES_PROBE)
    parsed = _parsed(cc, corpus)
    return _classify_op(cc, corpus, parsed, f"probe classify_corpus({len(parsed)})", probe=True)


def build(name: str, cc, seed: int, work: Path) -> Workload:
    if name == "sequence":
        return sequence_workload(cc, seed)
    if name == "enumerate":
        return enumerate_workload(cc, seed)
    if name == "classify-shared":
        return classify_workload(cc, shared_corpus(seed), work)
    if name == "classify-distinct":
        return classify_workload(cc, distinct_corpus(seed), work)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sequence", "enumerate", "classify-shared", "classify-distinct")
