"""Helpers and oracles that only the tests use.

They work on the library's public types but are written independently of
the code paths under test: :func:`product_closure` closes a group by
multiplying :class:`Permutation` objects, not by :func:`wordorbits.perm.closure`.
"""

import math

from wordorbits.complexity import BlockPartition, orbit_classes
from wordorbits.perm import AbelianSpec, PermGroup, Permutation
from wordorbits.words import FactorSet, WordSource, factors, parikh_key, restrict


def product_closure(group: PermGroup) -> tuple[Permutation, ...]:
    """Breadth-first closure from the identity by products ``g * h``.

    Level by level, each element ``h`` of the last level times each
    generator ``g`` in turn; the order is deterministic.
    """
    ident = Permutation.identity(group.degree)
    known = {ident}
    ordered = [ident]
    frontier = [ident]
    while frontier:
        fresh = []
        for h in frontier:
            for g in group.generators:
                c = g * h
                if c not in known:
                    known.add(c)
                    ordered.append(c)
                    fresh.append(c)
        frontier = fresh
    return tuple(ordered)


def closure_classes(fs: FactorSet, group: PermGroup) -> tuple[tuple[str, ...], ...]:
    """Orbit classes found by applying every element of the full closure."""
    elements = product_closure(group)
    seen = set()
    blocks = []
    for u in fs.members:
        if u in seen:
            continue
        cls = tuple(sorted({g.act(u) for g in elements} & fs.member_set))
        blocks.append(cls)
        seen.update(cls)
    return tuple(blocks)


def conjugate_group(group: PermGroup, sigma: Permutation) -> PermGroup:
    """``sigma G sigma^-1``, generator by generator."""
    if sigma.degree != group.degree:
        raise ValueError("conjugator degree mismatch")
    inv = sigma.inverse()
    return PermGroup(tuple(sigma * g * inv for g in group.generators), group.degree)


def is_abelian(group: PermGroup) -> bool:
    gens = group.generators
    return all(g * h == h * g for i, g in enumerate(gens) for h in gens[i + 1:])


def permutation_order(g: Permutation) -> int:
    return math.lcm(*(len(c) for c in g.cycles(include_fixed=True)))


def isomorphic_specs(spec: AbelianSpec, other: AbelianSpec) -> bool:
    """Equal as abstract groups: the same moduli once trivial factors go."""
    drop = lambda s: tuple(m for m in sorted(s.moduli) if m > 1)
    return drop(spec) == drop(other)


def p_value(source: WordSource, group: PermGroup) -> int:
    """Number of orbit classes of the length-``degree`` factors of ``source``."""
    fs = factors(source, group.degree)
    return orbit_classes(fs, group).class_count


def parikh_classes(members) -> tuple[tuple[str, ...], ...]:
    """Partition words into Parikh classes, classes ordered by least member."""
    groups: dict[tuple[tuple[str, int], ...], list[str]] = {}
    for w in sorted(members):
        groups.setdefault(parikh_key(w), []).append(w)
    return tuple(tuple(g) for g in groups.values())


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
