"""Orbit classes of factor sets, block-abelian relations, the bound harness.

The central quantity is the number of equivalence classes of the length-n
factors of an infinite word under the position-permuting action of a group
G in S_n.  For aperiodic words this count is at least epsilon(G) + 1, where
epsilon(G) is the number of point orbits; the harness here tabulates both
sides and checks the inequality over a range of lengths.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .perm import PermGroup
from .words import (APERIODIC_YES, FactorSet, InternalCheckError, WordSource,
                    factors, is_balanced, parikh_key, restrict)

STRUCTURED_FORMAT = "wordorbits/1"


@dataclass(frozen=True)
class OrbitPartition:
    """Partition of a factor set into orbit classes under a group action."""

    factor_set: FactorSet
    group: PermGroup
    blocks: tuple[tuple[str, ...], ...]

    @property
    def class_count(self) -> int:
        return len(self.blocks)

    @property
    def abelian_transitive(self) -> bool:
        """True iff the orbit classes coincide with the Parikh classes."""
        return self.blocks == self.factor_set.parikh_classes()


def orbit_classes(fs: FactorSet, group: PermGroup) -> OrbitPartition:
    """Group the members of ``fs`` into orbits of the word action.

    The orbit of each member is explored breadth-first by applying the
    generators and their inverses, so the full group is never materialized.
    The search walks through words outside the factor set (an orbit may leave
    it and come back); the class inside the set is orbit intersect members.
    Classes are ordered by least member, members lexicographically.
    """
    if fs.n != group.degree:
        raise ValueError(f"factor length {fs.n} != group degree {group.degree}")
    maps = list(group.generators)
    maps += [g.inverse() for g in group.generators]
    member_set = fs.member_set
    unassigned = set(member_set)
    blocks = []
    for u in fs.members:
        if u not in unassigned:
            continue
        orbit = {u}
        frontier = [u]
        while frontier:
            fresh = []
            for w in frontier:
                for g in maps:
                    v = g.act(w)
                    if v not in orbit:
                        orbit.add(v)
                        fresh.append(v)
            frontier = fresh
        cls = tuple(sorted(orbit & member_set))
        if len({parikh_key(w) for w in cls}) != 1:
            raise InternalCheckError(
                "orbit class spans several Parikh classes; the action cannot do that")
        blocks.append(cls)
        unassigned.difference_update(cls)
    return OrbitPartition(fs, group, tuple(blocks))


def p_value(source: WordSource, group: PermGroup) -> int:
    """Number of orbit classes of the length-``degree`` factors of ``source``."""
    fs = factors(source, group.degree)
    return orbit_classes(fs, group).class_count


def is_abelian_transitive(fs: FactorSet, group: PermGroup) -> bool:
    """True iff the orbit classes coincide with the Parikh classes of ``fs``."""
    return orbit_classes(fs, group).abelian_transitive


# ---------------------------------------------------------------------------
# block-abelian equivalences


@dataclass(frozen=True)
class BlockPartition:
    """Partition of {1..n} into blocks ordered by their maxima."""

    degree: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        flat = [p for block in self.blocks for p in block]
        if sorted(flat) != list(range(1, self.degree + 1)):
            raise ValueError("blocks must partition 1..n")
        for block in self.blocks:
            if list(block) != sorted(block):
                raise ValueError("each block must be sorted ascending")
        maxima = [block[-1] for block in self.blocks]
        if maxima != sorted(maxima):
            raise ValueError("blocks must be ordered by increasing maximum")

    @classmethod
    def intervals(cls, sizes: Iterable[int]) -> "BlockPartition":
        """Consecutive interval blocks of the given sizes."""
        blocks = []
        offset = 0
        for m in sizes:
            if m < 1:
                raise ValueError("block sizes must be positive")
            blocks.append(tuple(range(offset + 1, offset + m + 1)))
            offset += m
        return cls(offset, tuple(blocks))

    @property
    def is_interval(self) -> bool:
        return all(block[-1] - block[0] + 1 == len(block) for block in self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(block) for block in self.blocks)


def block_classes(fs: FactorSet, partition: BlockPartition,
                  j: int) -> tuple[tuple[str, ...], ...]:
    """Classes of equal restricted Parikh vectors on the first ``j`` blocks."""
    if partition.degree != fs.n:
        raise ValueError("partition degree must match the factor length")
    if not 1 <= j <= len(partition.blocks):
        raise ValueError(f"j must lie in 1..{len(partition.blocks)}")
    groups: dict[tuple, list[str]] = {}
    for w in fs.members:
        key = tuple(parikh_key(restrict(w, block))
                    for block in partition.blocks[:j])
        groups.setdefault(key, []).append(w)
    return tuple(tuple(g) for g in sorted(groups.values()))


# ---------------------------------------------------------------------------
# the complexity-bound harness


@dataclass(frozen=True)
class ComplexityRow:
    n: int
    group: str
    epsilon: int
    p: int

    @property
    def slack(self) -> int:
        return self.p - (self.epsilon + 1)


@dataclass(frozen=True)
class ComplexityTable:
    """Per-length record of epsilon(G_n), the class count p(n) and the slack."""

    word: str
    rows: tuple[ComplexityRow, ...]
    verdict: str  # "pass" | "fail" | "inapplicable"
    failure_n: int | None = None
    sturmian_consistent: bool = False
    note: str = ""

    def to_text(self) -> str:
        header = ("n", "group", "epsilon", "p", "slack")
        cells = [header]
        for r in self.rows:
            cells.append((str(r.n), r.group, str(r.epsilon), str(r.p), str(r.slack)))
        widths = [max(len(row[i]) for row in cells) for i in range(5)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in cells]
        lines.append(f"verdict: {self.verdict}" + (
            f" (n={self.failure_n})" if self.failure_n is not None else ""))
        if self.sturmian_consistent:
            lines.append("sturmian-consistent: true")
        if self.note:
            lines.append(f"note: {self.note}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "group", "epsilon", "p", "slack"])
        for r in self.rows:
            writer.writerow([r.n, r.group.replace(",", " "), r.epsilon, r.p, r.slack])
        return buf.getvalue().rstrip("\n")

    def to_structured(self) -> dict:
        return {
            "format": STRUCTURED_FORMAT,
            "kind": "complexity-table",
            "word": self.word,
            "rows": [{"n": r.n, "group": r.group, "epsilon": r.epsilon,
                      "p": r.p, "slack": r.slack} for r in self.rows],
            "verdict": self.verdict,
            "failure_n": self.failure_n,
            "sturmian_consistent": self.sturmian_consistent,
            "note": self.note,
        }


GroupSequence = Mapping[int, PermGroup] | Callable[[int], PermGroup]


def _group_for(groups: GroupSequence, n: int) -> PermGroup:
    group = groups(n) if callable(groups) else groups[n]
    if group.degree != n:
        raise ValueError(f"group sequence provides degree {group.degree} at n={n}")
    return group


def complexity_table(source: WordSource, groups: GroupSequence,
                     ns: Iterable[int]) -> tuple[ComplexityRow, ...]:
    """Tabulate epsilon and the class count for each requested length."""
    rows = []
    for n in sorted(set(ns)):
        group = _group_for(groups, n)
        fs = factors(source, n)
        p = orbit_classes(fs, group).class_count
        rows.append(ComplexityRow(n, group.descriptor(), group.epsilon, p))
    return tuple(rows)


def verify_complexity_bound(source: WordSource, groups: GroupSequence,
                            ns: Iterable[int]) -> ComplexityTable:
    """Check p(n) >= epsilon(G_n) + 1 over the given lengths.

    The bound holds for aperiodic words only, so sources that are not
    aperiodic by construction get the verdict "inapplicable" rather than a
    guess.  If the slack is zero for every tested length the table is flagged
    sturmian-consistent, after cross-checking the factor count n + 1 and
    balance on the tested range; the flag is a bounded observation, never a
    claim about all lengths.  No lengths at all is an error, not a pass.
    """
    ns = list(ns)
    if not ns:
        raise ValueError("no lengths to check")
    if source.aperiodic != APERIODIC_YES:
        return ComplexityTable(source.name, (), "inapplicable",
                               note=f"source aperiodicity is {source.aperiodic!r}")
    rows = complexity_table(source, groups, ns)
    for row in rows:
        if row.slack < 0:
            return ComplexityTable(source.name, rows, "fail", failure_n=row.n)
    consistent = all(row.slack == 0 for row in rows)
    note = ""
    if consistent:
        tested = [row.n for row in rows]
        counts_ok = all(len(factors(source, n)) == n + 1 for n in tested)
        balance_ok = is_balanced(source, max(tested)).balanced
        if not (counts_ok and balance_ok):
            consistent = False
            note = "slack zero throughout but factor-count/balance cross-check failed"
    return ComplexityTable(source.name, rows, "pass",
                           sturmian_consistent=consistent, note=note)
