"""Seeded corpora for the classify workloads.

The same seed always yields the same bytes.  The program only ever sees the
generated file (or the matrices parsed from it); the generator keeps the exact
values so that parsing can be checked too.

Run `python3 cutbench/corpora.py --seed 1` to print each corpus's make-up.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from fractions import Fraction

if __package__:
    from .reference import partition_by_rank_pattern, rank_pattern
else:
    from reference import partition_by_rank_pattern, rank_pattern


@dataclass(frozen=True)
class Corpus:
    order: int
    fmt: str  # "json" or "text", the file format the program reads
    text: str  # the file contents
    values: tuple[tuple[Fraction, ...], ...]  # each matrix row-major, as generated

    def keys(self) -> list[tuple]:
        return [rank_pattern(v) for v in self.values]

    def report(self) -> dict:
        """Class count, mean levels per matrix and the share of shared classes."""
        classes = partition_by_rank_pattern(self.keys())
        shared = sum(len(c) for c in classes if len(c) > 1)
        levels = [len({v for v in vals if 0 < v < 1}) for vals in self.values]
        return {
            "matrices": len(self.values),
            "order": self.order,
            "format": self.fmt,
            "bytes": len(self.text.encode()),
            "classes": len(classes),
            "mean_levels": round(sum(levels) / len(levels), 2),
            "shared_share": round(shared / len(self.values), 4),
        }


ONE_SLOT = -1


def _pattern(rng: random.Random, cells: int, levels: int, zero: bool, one: bool) -> tuple[int, ...]:
    """Each cell's rank slot: 0 is the value 0, 1..levels interior, ONE_SLOT the value 1.

    Every slot in use appears at least once, so the pattern has exactly
    `levels` values inside (0, 1).
    """
    slots = list(range(1, levels + 1)) + [0] * zero + [ONE_SLOT] * one
    if len(slots) > cells:
        raise ValueError("more slots than cells")
    assignment = slots + [rng.choice(slots) for _ in range(cells - len(slots))]
    rng.shuffle(assignment)
    return tuple(assignment)


def _revalue(pattern: tuple[int, ...], interior: list[Fraction]) -> tuple[Fraction, ...]:
    """The pattern with interior slot i taking the i-th smallest interior value."""
    table = [Fraction(0)] + sorted(interior)
    return tuple(Fraction(1) if s == ONE_SLOT else table[s] for s in pattern)


def _short_value(rng: random.Random) -> tuple[Fraction, str]:
    """A value in (0, 1) written as a short decimal or a small fraction."""
    if rng.random() < 0.5:
        digits = rng.randint(1, 4)
        num = rng.randint(1, 10**digits - 1)
        return Fraction(num, 10**digits), f"0.{num:0{digits}d}"
    den = rng.randint(2, 999)
    value = Fraction(rng.randint(1, den - 1), den)
    return value, f"{value.numerator}/{value.denominator}"


def _spelling(value: Fraction, spelled: dict[Fraction, str]) -> str:
    if value == 0:
        return "0"
    if value == 1:
        return "1"
    return spelled[value]


def shared_corpus(seed: int, *, order: int = 4, patterns: int = 40, members: int = 15) -> Corpus:
    """Few-level matrices drawn from `patterns` classes of `members` matrices each.

    Pattern i has 2 + i % 4 values inside (0, 1), and cells equal to 0 or 1
    as the two low bits of i // 4 say, so every seed has the same make-up.
    Each member is a fresh order-preserving re-valuation of its class pattern,
    and members of different classes are shuffled together.  JSON format.
    """
    rng = random.Random(f"shared:{seed}:{order}:{patterns}")
    cells = order * order
    chosen: dict[tuple[int, ...], None] = {}
    while len(chosen) < patterns:
        i = len(chosen)
        chosen.setdefault(_pattern(rng, cells, 2 + i % 4, bool(i // 4 & 1), bool(i // 4 & 2)))
    rows = []
    for pattern in chosen:
        levels = max(pattern)
        for _ in range(members):
            spelled: dict[Fraction, str] = {}
            while len(spelled) < levels:
                value, text = _short_value(rng)
                spelled.setdefault(value, text)
            values = _revalue(pattern, list(spelled))
            rows.append((values, [_spelling(v, spelled) for v in values]))
    rng.shuffle(rows)
    objects = [
        {"n": order, "entries": [texts[i : i + order] for i in range(0, cells, order)]}
        for _, texts in rows
    ]
    text = json.dumps(objects, indent=1) + "\n"
    return Corpus(order, "json", text, tuple(values for values, _ in rows))


def distinct_corpus(seed: int, *, order: int = 6, size: int = 100) -> Corpus:
    """Many-level matrices whose entries are fractions with large denominators.

    Matrix i has cells - i % 4 distinct values inside (0, 1) (33 to 36 at
    order 6); its spare cells take 0, 1 or a repeated level, so nearly every
    matrix is alone in its class.  Text format: blank-line-separated grids.
    """
    rng = random.Random(f"distinct:{seed}:{order}:{size}")
    cells = order * order
    all_values, blocks = [], []
    for i in range(size):
        spare = i % 4
        levels = cells - spare
        pattern = _pattern(rng, cells, levels, spare >= 1, spare >= 2)
        interior: set[Fraction] = set()
        while len(interior) < levels:
            den = rng.randint(10**9, 10**12)
            interior.add(Fraction(rng.randint(1, den - 1), den))
        values = _revalue(pattern, list(interior))
        texts = [str(v) for v in values]
        blocks.append("\n".join(" ".join(texts[r : r + order]) for r in range(0, cells, order)))
        all_values.append(values)
    return Corpus(order, "text", "\n\n".join(blocks) + "\n", tuple(all_values))


def main() -> None:
    parser = argparse.ArgumentParser(description="Print the make-up of the seeded corpora.")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for name, corpus in (
        ("classify-shared", shared_corpus(args.seed)),
        ("classify-distinct", distinct_corpus(args.seed)),
    ):
        print(name, json.dumps(corpus.report()))


if __name__ == "__main__":
    main()
