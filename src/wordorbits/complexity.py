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
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from .perm import GroupSizeError, PermGroup, Permutation, closure
from .words import (APERIODIC_YES, FactorSet, InternalCheckError, WordSource,
                    factors, is_balanced)

#: A component outside the symmetric and one-cycle rules whose group has at
#: most this many elements keys to its least image over the enumerated
#: group; a larger one sends the group to the orbit search.
SMALL_ORDER_BOUND = 120


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
        """True iff the orbit classes coincide with the Parikh classes.

        They do when each class lies in one Parikh class and the classes are
        as many as the Parikh classes, so the Parikh classes are counted,
        not built.
        """
        ids = self.factor_set.parikh_ids
        return (len(self.blocks) == max(ids.values(), default=-1) + 1
                and all(len({ids[w] for w in cls}) == 1 for cls in self.blocks))


def orbit_classes(fs: FactorSet, group: PermGroup) -> OrbitPartition:
    """Group the members of ``fs`` into orbits of the word action.

    When :func:`_canonical_key` finds a key for ``group``, each member gets
    one key and the members are grouped by it; otherwise the orbits are
    searched word by word (:func:`_orbit_search`).  Either way an orbit
    class spanning several Parikh classes (``fs.parikh_ids``) is an
    :class:`InternalCheckError`.  Classes are ordered by least member,
    members lexicographically.
    """
    if fs.n != group.degree:
        raise ValueError(f"factor length {fs.n} != group degree {group.degree}")
    key = _canonical_key(group)
    if key is None:
        blocks = _orbit_search(fs, group)
    else:
        classes: dict[tuple[str, ...], list[str]] = {}
        for w in fs.members:
            classes.setdefault(key(w), []).append(w)
        blocks = tuple([tuple(cls) for cls in classes.values()])
    parikh_ids = fs.parikh_ids
    for cls in blocks:
        if len({parikh_ids[w] for w in cls}) != 1:
            raise InternalCheckError(
                "orbit class spans several Parikh classes; the action cannot do that")
    return OrbitPartition(fs, group, blocks)


def _canonical_key(group: PermGroup) -> Callable[[str], tuple[str, ...]] | None:
    """A map from words to keys that agree exactly on the orbits of ``group``.

    Each generator couples every point it moves, so the components of the
    union of the generators' supports split the group into a direct product,
    and a word's orbit is the product of the orbits of its restrictions.
    Points no generator moves key to their letter.  A component is
    symmetric when some generator is one cycle ``c`` through all of it and
    some generator is a transposition ``(a, c(a))``: conjugating the
    transposition by powers of ``c`` gives every adjacent transposition
    along ``c``, so the restriction keys to its sorted letters.  A component
    moved by a single generator that is one cycle keys to the least rotation
    of its letters read in cycle order.  Any other component whose group has
    at most ``SMALL_ORDER_BOUND`` elements keys to its least image: the
    least of its letters gathered by each element, which runs over the
    restriction's orbit because the elements include their inverses.  A
    larger component has no key here, and the result is None.
    """
    cycles_of = {g: g.cycles() for g in group.generators}
    components: list[tuple[set[int], list[Permutation]]] = []
    for g in group.generators:
        points = {p for cyc in cycles_of[g] for p in cyc}
        if not points:
            continue
        gens = [g]
        for comp in [comp for comp in components if comp[0] & points]:
            components.remove(comp)
            points |= comp[0]
            gens += comp[1]
        components.append((points, gens))
    moved: set[int] = set()
    symmetric, rotating, small = [], [], []
    for points, gens in components:
        moved |= points
        k = len(points)
        cycles = [cycles_of[g] for g in gens]
        full = [cyc[0] for cyc in cycles if len(cyc) == 1 and len(cyc[0]) == k]
        swaps = {frozenset(cyc[0]) for cyc in cycles if len(cyc) == 1 and len(cyc[0]) == 2}
        if any(frozenset(pair) in swaps
               for cyc in full for pair in zip(cyc, cyc[1:] + cyc[:1])):
            symmetric.append(itemgetter(*(p - 1 for p in sorted(points))))
        elif len(gens) == 1 and full:
            rotating.append(itemgetter(*(p - 1 for p in full[0])))
        else:
            points = sorted(points)
            gathers = _small_group_gathers(points, gens)
            if gathers is None:
                return None
            small.append((itemgetter(*[p - 1 for p in points]), gathers))
    fixed = [p - 1 for p in range(1, group.degree + 1) if p not in moved]
    rest = itemgetter(*fixed) if fixed else lambda w: ""

    def key(w: str) -> tuple[str, ...]:
        return ("".join(rest(w)),
                *("".join(sorted(get(w))) for get in symmetric),
                *(_least_rotation("".join(get(w))) for get in rotating),
                *(_least_image(gathers, "".join(get(w))) for get, gathers in small))
    return key


def _small_group_gathers(points: list[int],
                         gens: list[Permutation]) -> list[itemgetter] | None:
    """The elements of the group ``gens`` induce on ``points``, as gathers.

    The group is closed on component-local images (item i of an element
    ``x`` is the index in ``points`` of the image of ``points[i]``), and
    each ``x`` becomes ``itemgetter(*x)`` on the component's letters read in
    ``points`` order.  None once the closure passes ``SMALL_ORDER_BOUND``
    elements.
    """
    local = {p: i for i, p in enumerate(points)}
    moves = [[local[g(p)] for p in points] for g in gens]
    elements = closure(moves, len(points), SMALL_ORDER_BOUND)
    return None if elements is None else [itemgetter(*x) for x in elements]


def _least_image(gathers: list[itemgetter], r: str) -> str:
    """The least of the words the gathers read off ``r``: its orbit's least."""
    return min(["".join(get(r)) for get in gathers])


def _least_rotation(r: str) -> str:
    """The lexicographically least rotation of ``r``.

    It starts with the least letter, at the start of a run of it: a rotation
    starting one letter into a run is beaten by the one starting a letter
    earlier, unless ``r`` is that letter throughout.
    """
    k = len(r)
    rr = r + r
    least = min(r)
    return min((rr[i:i + k] for i in range(k) if r[i] == least and r[i - 1] != least),
               default=r)


def _orbit_search(fs: FactorSet, group: PermGroup) -> tuple[tuple[str, ...], ...]:
    """Orbit classes of ``fs`` found by searching each orbit word by word.

    The orbit of each member is explored breadth-first by applying the
    generators and their inverses, so the full group is never materialized.
    The search walks through words outside the factor set (an orbit may leave
    it and come back); the class inside the set is orbit intersect members.
    The maps include the inverses, so the orbit graph is undirected and the
    previous and current BFS levels are all it keeps; an orbit of more than
    ``PermGroup.DEFAULT_CAP`` words raises :class:`GroupSizeError`.
    """
    maps = list(group.generators)
    maps += [g.inverse() for g in group.generators]
    member_set = fs.member_set
    unassigned = set(member_set)
    blocks = []
    for u in fs.members:
        if u not in unassigned:
            continue
        found, visited = [u], 1
        previous, frontier = set(), {u}
        while frontier:
            fresh = set()
            for w in frontier:
                for g in maps:
                    v = g.act(w)
                    if v in fresh or v in frontier or v in previous:
                        continue
                    fresh.add(v)
                    if v in member_set:
                        found.append(v)
            visited += len(fresh)
            if visited > PermGroup.DEFAULT_CAP:
                raise GroupSizeError(f"orbit of {u} under <{group.descriptor()}> "
                                     f"exceeds cap {PermGroup.DEFAULT_CAP}")
            previous, frontier = frontier, fresh
        cls = tuple(sorted(found))
        blocks.append(cls)
        unassigned.difference_update(cls)
    return tuple(blocks)


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
