"""Witness constructions achieving the complexity lower bound on Sturmian words.

For a Sturmian word and any length m there is an m-cycle, coming from a
discrete 3-interval exchange, whose action identifies exactly the abelian
classes of the length-m factors.  Stacking such cycles on the blocks of an
interval partition produces, for any abstract finite abelian group, an
embedded copy whose class count meets epsilon(G) + 1 exactly.  This module
builds those witnesses and verifies them as it goes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache
from operator import itemgetter

from .complexity import (BlockPartition, _canonical_key, is_abelian_transitive,
                         orbit_classes)
from .perm import (AbelianSpec, Images, PermGroup, Permutation,
                   abc_permutation, closure, compose, conjugate, inverse,
                   to_permutation, zero_based)
from .words import (InternalCheckError, SturmianWord, WordSource,
                    bispecial_ladder, factors, restrict)

#: Largest degree :func:`conjugacy_scan` accepts.  It searches the n!/|N|
#: conjugates of G, relabels Fact(n) once per conjugate and closes their
#: normalizer N, so the search or the closure is large unless n is small.
SCAN_DEGREE_CAP = 8


def modular_inverse(x: int, modulus: int) -> int:
    """The unique y in 1..modulus-1 with x * y = 1 (mod modulus)."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if math.gcd(x, modulus) != 1:
        raise ValueError(f"{x} is not invertible modulo {modulus}")
    return pow(x, -1, modulus)


@dataclass(frozen=True)
class FineWilfData:
    """Everything extracted from a pair of consecutive bispecial factors.

    For a target length m, ``w_prev`` and ``w`` are consecutive bispecial
    factors with |w_prev| + 2 < m <= |w| + 2.  With r and s the counts of 1s
    and 0s in 0w1, the coprime periods of w are p = r^-1 and q = s^-1 modulo
    r + s, and the interval-exchange lengths are a = m - p, b = p + q - m,
    c = m - q.
    """

    m: int
    w: str
    w_prev: str
    r: int
    s: int
    p: int
    q: int
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        total = self.r + self.s
        checks = [
            len(self.w_prev) + 2 < self.m <= len(self.w) + 2,
            total == len(self.w) + 2,
            (self.p * self.r) % total == 1,
            (self.q * self.s) % total == 1,
            self.a == self.m - self.p,
            self.b == self.p + self.q - self.m,
            self.c == self.m - self.q,
            self.a > 0 and self.c > 0 and self.b >= 0,
            self.a + self.b + self.c == self.m,
            math.gcd(self.a + self.b, self.b + self.c) == 1,
            math.gcd(self.p, self.q) == 1,
            max(self.p, self.q) == len(self.w_prev) + 2,
        ]
        if not all(checks):
            raise InternalCheckError(f"inconsistent interval-exchange data: {self}")

    def to_structured(self) -> dict:
        return {
            "kind": "fine-wilf",
            "m": self.m, "w": self.w, "w_prev": self.w_prev,
            "r": self.r, "s": self.s, "p": self.p, "q": self.q,
            "a": self.a, "b": self.b, "c": self.c,
        }


def fine_wilf_data(source: SturmianWord, m: int) -> FineWilfData:
    """Locate the bracketing bispecial pair for ``m`` and derive (a, b, c)."""
    if m < 4:
        raise ValueError("lengths below 4 use the fixed base cycles directly")
    if source.kind != "sturmian":
        raise ValueError("interval-exchange data requires a sturmian-kind source")
    # Consecutive central words satisfy |w| + 2 < 2 (|w_prev| + 2), so the
    # first one with |w| + 2 >= m is shorter than 2m.
    for w_prev, w in itertools.pairwise(bispecial_ladder(source, 2 * m)):
        if len(w) >= m - 2:
            break
    else:
        raise InternalCheckError(f"{source.name} has no central word of length {m - 2}..{2 * m}")
    marked = "0" + w + "1"
    r = marked.count("1")
    s = marked.count("0")
    p = modular_inverse(r, r + s)
    q = modular_inverse(s, r + s)
    return FineWilfData(m, w, w_prev, r, s, p, q, m - p, p + q - m, m - q)


def sturmian_cycle(source: SturmianWord, m: int) -> Permutation:
    """An m-cycle whose action on the length-m factors is abelian transitive.

    For m = 1, 2, 3 the cycles are id, (1,2), (1,2,3); beyond that the cycle
    is the 3-interval exchange from :func:`fine_wilf_data`.  Both the cycle
    structure and abelian transitivity are verified before returning, so a
    failure here means a bug, not an unlucky input.
    """
    if m < 1:
        raise ValueError("cycle length must be at least 1")
    if m <= 3:
        sigma = Permutation(tuple(range(2, m + 1)) + (1,))
    else:
        data = fine_wilf_data(source, m)
        sigma = abc_permutation(data.a, data.b, data.c)
    if not sigma.is_cycle():
        raise InternalCheckError(f"interval exchange at m={m} is not an m-cycle")
    if not is_abelian_transitive(factors(source, m), PermGroup((sigma,))):
        raise InternalCheckError(
            f"cycle action at m={m} does not match the abelian classes")
    return sigma


# ---------------------------------------------------------------------------
# christoffel arrays


@dataclass(frozen=True)
class ChristoffelArray:
    """Lexicographically sorted cyclic conjugates of 0w1, one per row."""

    r: int
    s: int
    rows: tuple[str, ...]

    def __post_init__(self) -> None:
        n = self.r + self.s
        if len(self.rows) != n or any(len(row) != n for row in self.rows):
            raise ValueError("array must be (r+s) x (r+s)")
        if list(self.rows) != sorted(set(self.rows)):
            raise ValueError("rows must be distinct and sorted")
        if any(row.count("1") != self.r for row in self.rows):
            raise ValueError("every row must have exactly r ones")

    @property
    def size(self) -> int:
        return self.r + self.s

    @property
    def shift(self) -> int:
        """The cyclic shift q carrying each row to its successor."""
        return modular_inverse(self.s, self.size)

    def render(self) -> str:
        return "\n".join(" ".join(row) for row in self.rows)

    def to_structured(self) -> dict:
        return {
            "kind": "christoffel",
            "r": self.r, "s": self.s,
            "rows": list(self.rows),
        }


def christoffel_array(w: str) -> ChristoffelArray:
    """The array of cyclic conjugates of 0w1; requires 0w1 primitive."""
    if any(c not in "01" for c in w):
        raise ValueError("the central word must be binary")
    marked = "0" + w + "1"
    conjugates = {marked[i:] + marked[:i] for i in range(len(marked))}
    if len(conjugates) != len(marked):
        raise ValueError(f"0{w}1 is not primitive; its conjugates collide")
    return ChristoffelArray(marked.count("1"), marked.count("0"),
                            tuple(sorted(conjugates)))


# ---------------------------------------------------------------------------
# witness constructions


@dataclass(frozen=True)
class WitnessReport:
    """Full record of a block-cycle witness construction."""

    degree: int
    input_kind: str  # "abelian" | "cycle-type"
    input_data: tuple[int, ...]
    padded_sizes: tuple[int, ...]
    partition: BlockPartition
    cycles: tuple[Permutation, ...]
    group: PermGroup
    epsilon: int
    classes: tuple[tuple[str, ...], ...]
    passed: bool

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def cycle_strings(self) -> tuple[str, ...]:
        # Singleton blocks carry the identity; render them by their support
        # so the padding stays visible.
        out = []
        for block, cyc in zip(self.partition.blocks, self.cycles):
            if len(block) == 1:
                out.append(f"({block[0]})")
            else:
                out.append(cyc.cycle_string())
        return tuple(out)

    def to_structured(self) -> dict:
        return {
            "kind": "witness",
            "n": self.degree,
            "input_kind": self.input_kind,
            "input_data": list(self.input_data),
            "padded_sizes": list(self.padded_sizes),
            "blocks": [list(block) for block in self.partition.blocks],
            "cycles": list(self.cycle_strings()),
            "epsilon": self.epsilon,
            "class_count": self.class_count,
            "classes": [list(cls) for cls in self.classes],
            "passed": self.passed,
        }


def _relabel_into_block(base: Permutation, block: tuple[int, ...],
                        degree: int) -> Permutation:
    """Embed a degree-m permutation into S_degree on the given m points.

    Point j of {1..m} goes to the j-th smallest element of the block, the
    unique order-preserving relabeling.
    """
    images = list(range(1, degree + 1))
    for j, point in enumerate(block, start=1):
        images[point - 1] = block[base(j) - 1]
    return Permutation(tuple(images))


def _build_block_witness(source: SturmianWord, sizes: tuple[int, ...],
                         input_kind: str,
                         input_data: tuple[int, ...]) -> WitnessReport:
    partition = BlockPartition.intervals(sizes)
    n = partition.degree
    cycles = []
    for block in partition.blocks:
        base = sturmian_cycle(source, len(block))
        relabeled = _relabel_into_block(base, block, n)
        support = tuple(i for i in range(1, n + 1) if relabeled(i) != i)
        if len(block) > 1 and support != block:
            raise InternalCheckError(
                f"cycle support {support} does not equal its block {block}")
        cycles.append(relabeled)
    group = PermGroup(tuple(cycles), n)
    epsilon = group.epsilon
    if epsilon != len(sizes):
        raise InternalCheckError(
            f"block cycles produced {epsilon} point orbits, expected {len(sizes)}")
    fs = factors(source, n)  # after the cycles, whose checks build factor sets of their own
    for block in partition.blocks:
        if len(block) == 1:
            continue
        restricted = {restrict(u, block) for u in fs.members}
        expected = factors(source, len(block)).member_set
        if restricted != expected:
            raise InternalCheckError(
                f"restrictions to block {block} do not cover the factors of "
                f"length {len(block)}")
    partitioned = orbit_classes(fs, group)
    passed = partitioned.class_count == epsilon + 1
    return WitnessReport(n, input_kind, input_data, sizes, partition,
                         tuple(cycles), group, epsilon, partitioned.blocks,
                         passed)


def build_isomorphic_witness(source: SturmianWord, n: int,
                             spec: AbelianSpec) -> WitnessReport:
    """Embed an abstract abelian group into S_n meeting the bound exactly.

    The spec is padded with trivial factors up to trace n, each modulus gets
    a consecutive interval block carrying a sturmian cycle of that length,
    and the group generated by the block cycles is returned with its class
    partition.  Requires trace <= n; that bound is sharp for embeddings of
    abelian groups into symmetric groups.
    """
    if spec.trace > n:
        raise ValueError(
            f"trace {spec.trace} exceeds n={n}; no embedding into S_{n} exists")
    padded = spec.padded(n)
    return _build_block_witness(source, padded.moduli, "abelian", spec.moduli)


def build_conjugate_witness(source: SturmianWord,
                            sigma: Permutation) -> WitnessReport:
    """Rebuild the cycle type of ``sigma`` on interval blocks, meeting the bound.

    The cycle lengths of ``sigma``, with fixed points counted as 1-cycles,
    must have gcd 1.  Blocks of those sizes (nontrivial lengths first,
    largest first, then the fixed points) each carry a sturmian cycle; the
    resulting generator tuple has the same disjoint-cycle length data as the
    input, which certifies conjugacy of the generating sets.
    """
    ctype = sigma.cycle_type()
    if math.gcd(*ctype) != 1:
        raise ValueError(f"cycle lengths {ctype} have gcd {math.gcd(*ctype)}, need 1")
    sizes = tuple(m for m in ctype if m > 1) + (1,) * ctype.count(1)
    report = _build_block_witness(source, sizes, "cycle-type", ctype)
    if tuple(sorted(report.padded_sizes)) != tuple(sorted(ctype)):
        raise InternalCheckError("block sizes do not match the input cycle type")
    return report


# ---------------------------------------------------------------------------
# exhaustive conjugacy scans


@dataclass(frozen=True)
class ConjugacyScan:
    """Class counts over every distinct conjugate of a subgroup."""

    degree: int
    min_classes: int
    max_classes: int
    rows: tuple[tuple[str, int], ...]  # (generator descriptor, class count)

    def to_structured(self) -> dict:
        return {
            "kind": "conjugacy-scan",
            "n": self.degree,
            "min_classes": self.min_classes,
            "max_classes": self.max_classes,
            "subgroups": [{"group": desc, "classes": count}
                          for desc, count in self.rows],
        }


def _least_in_coset(sigma: Images, group: list[Images]) -> Images:
    """The lexicographically least ``sigma * nu`` over ``nu`` in ``group``.

    Permutations are 0-based images, as in :mod:`.perm`.  Keep the ``nu``
    that minimise ``sigma[nu[0]]``, then among those ``sigma[nu[1]]``, and
    so on until one is left (distinct permutations differ somewhere); only
    that one is composed.
    """
    i = 0
    while len(group) > 1:
        best = min([sigma[nu[i]] for nu in group])
        group = [nu for nu in group if sigma[nu[i]] == best]
        i += 1
    return compose(sigma, group[0])


def conjugacy_scan(source: WordSource, group: PermGroup) -> ConjugacyScan:
    """Class counts on Fact(n) for every subgroup conjugate to ``group``.

    The conjugates H = rep[H] G rep[H]^-1 are found breadth-first from G,
    conjugating by (1,2) and by the n-cycle; a move m from H to a known H'
    gives the Schreier generator rep[H']^-1 m rep[H] of the normalizer N
    of G, and N is closed again only when one falls outside it.  H is
    reported with G's generators conjugated by the least sigma in rep[H] N,
    first in ``itertools.permutations`` order, which
    :func:`_least_in_coset` picks by filtering N one position at a time.
    As sigma^-1 (h w) = g (sigma^-1 w), H's classes on Fact(n) are G's
    classes of the words sigma^-1 w: G is keyed once and H counts the
    distinct keys of those words; a group with no key calls
    :func:`orbit_classes` per conjugate.  The costs are (n!/|N|) |G|
    conjugations, about |N| compositions per kept generator and
    (n!/|N|) |Fact(n)| gathers, which the degree guard bounds.  Rows are
    sorted by class count, then descriptor.
    """
    n = group.degree
    if n > SCAN_DEGREE_CAP:
        raise ValueError(f"scan degree {n} exceeds the guard {SCAN_DEGREE_CAP}")
    fs = factors(source, n)
    ident = zero_based(Permutation.identity(n))
    generators = [zero_based(g) for g in group.generators]
    moves = [(m, inverse(m))
             for m in map(zero_based, PermGroup.symmetric(n).generators)]
    start = frozenset(closure(generators, n))
    rep = {start: ident}
    todo = [start]
    kept, normalizer, in_normalizer = [], [ident], {ident}
    for subgroup in todo:
        for m, m_inv in moves:
            image = frozenset(conjugate(m, m_inv, h) for h in subgroup)
            reached = compose(m, rep[subgroup])
            if image not in rep:
                rep[image] = reached
                todo.append(image)
            elif (nu := compose(inverse(rep[image]), reached)) not in in_normalizer:
                kept.append(nu)
                normalizer = closure(kept, n)
                in_normalizer = set(normalizer)
    reps = list(rep.values())
    del rep, todo

    if len(normalizer) * len(reps) != math.factorial(n):
        raise InternalCheckError(
            f"{len(reps)} conjugates and a normalizer of order {len(normalizer)} "
            f"do not account for S_{n}")
    least = [_least_in_coset(sigma, normalizer) for sigma in reps]
    del normalizer, reps

    key = _canonical_key(group)
    key = cache(key) if key else None
    results = []
    for sigma in least:
        sigma_inv = inverse(sigma)
        conj = PermGroup([to_permutation(conjugate(sigma, sigma_inv, g))
                          for g in generators], n)
        if key is None:
            count = orbit_classes(fs, conj).class_count
        else:
            relabel = itemgetter(*sigma)
            pairs = {(key("".join(relabel(w))), fs.parikh_ids[w]) for w in fs.members}
            count = len({k for k, _ in pairs})
            if count != len(pairs):
                raise InternalCheckError("an orbit class spans several Parikh classes")
        results.append((conj.descriptor(), count))
    rows = tuple(sorted(results, key=lambda item: (item[1], item[0])))
    counts = [count for _, count in rows]
    return ConjugacyScan(n, min(counts), max(counts), rows)
