"""Facts fixed by theory, computed without calling the library.

Every output check in the benchmark compares a command's structured output
with one of these.  None of them imports ``wordorbits``: the words are
regenerated here from their definitions and the expected values come from
known theorems, so a defect in the library cannot hide inside its own check.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache


class CheckFailure(Exception):
    """A command's output disagrees with the expected fact."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# words


def sturmian_prefix(directive: tuple[int, ...], length: int) -> str:
    """Prefix of the characteristic word with the given directive sequence.

    Standard words: s[-1] = 1, s[0] = 0, s[k] = s[k-1]^d_k s[k-2], the last
    digit repeating forever.
    """
    prev, cur, k = "1", "0", 0
    while len(cur) < length:
        digit = directive[min(k, len(directive) - 1)]
        prev, cur = cur, cur * digit + prev
        k += 1
    return cur[:length]


def central_lengths(directive: tuple[int, ...], up_to: int) -> list[int]:
    """Lengths of the bispecial (central) factors, in increasing order.

    They are |s[k-1]| * j + |s[k-2]| - 2 for j = 1..d_k (de Luca 1997).
    """
    before, last = 1, 1
    out = []
    k = 0
    while True:
        digit = directive[min(k, len(directive) - 1)]
        for j in range(1, digit + 1):
            length = last * j + before - 2
            if length > up_to:
                return out
            out.append(length)
        before, last = last, digit * last + before
        k += 1


def bracketing_central(directive: tuple[int, ...], m: int) -> tuple[int, int]:
    """Lengths of the first central word with length >= m - 2 and its predecessor."""
    lengths = central_lengths(directive, 4 * m + 8)
    for prev, cur in zip(lengths, lengths[1:]):
        if cur >= m - 2:
            return prev, cur
    raise ValueError(f"no central word near m={m}")


@lru_cache(maxsize=None)
def sturmian_factors(directive: tuple[int, ...], n: int) -> frozenset[str]:
    """All length-n factors: a Sturmian word has exactly n + 1 of them.

    Windows of a prefix are factors, so n + 1 distinct windows are all of them.
    """
    length = 64 * n + 64
    while True:
        text = sturmian_prefix(directive, length)
        found = frozenset(text[i:i + n] for i in range(len(text) - n + 1))
        if len(found) == n + 1:
            return found
        if len(found) > n + 1:
            raise ValueError(f"{len(found)} windows of length {n}: not Sturmian")
        length *= 2


@lru_cache(maxsize=None)
def thue_morse_factors(letters: str, n: int) -> frozenset[str]:
    """Length-n factors of Thue-Morse over ``letters``: t(i) = popcount(i) mod 2.

    With 2^k >= n, each such factor lies in mu^(k+1)(ab) for a two-letter
    factor ab, and all four occur at positions < 8, so a prefix of length
    2^(k+4) holds them all.
    """
    k = max(0, (n - 1).bit_length())
    length = 1 << (k + 4)
    text = "".join(letters[bin(i).count("1") & 1] for i in range(length))
    return frozenset(text[i:i + n] for i in range(length - n + 1))


def eventually_constant_factors(head: str, tail: str, n: int) -> frozenset[str]:
    """Factors of head tail tail tail ..., the fixed point of head -> head tail."""
    return frozenset({head + tail * (n - 1), tail * n})


def block_classes(members, sizes: tuple[int, ...]) -> list[list[str]]:
    """Classes of words equal in their letter counts on each interval block."""
    groups: dict[tuple, list[str]] = {}
    for word in members:
        key, start = [], 0
        for size in sizes:
            key.append(tuple(sorted(Counter(word[start:start + size]).items())))
            start += size
        groups.setdefault(tuple(key), []).append(word)
    return sorted(sorted(cls) for cls in groups.values())


# ---------------------------------------------------------------------------
# permutation groups


def cycle_type(cycles: list[tuple[int, ...]], degree: int) -> tuple[int, ...]:
    lengths = [len(c) for c in cycles]
    return tuple(sorted(lengths + [1] * (degree - sum(lengths)), reverse=True))


def conjugate_cyclic_subgroups(ctype: tuple[int, ...]) -> int:
    """Number of cyclic subgroups of S_n conjugate to <g>, g of cycle type ``ctype``.

    There are n! / prod(k^m_k m_k!) elements of that type; each subgroup has
    phi(order) generators, all of the same type.
    """
    n = sum(ctype)
    centralizer = 1
    for k, m in Counter(ctype).items():
        centralizer *= k ** m * math.factorial(m)
    order = math.lcm(*ctype)
    phi = sum(1 for j in range(1, order + 1) if math.gcd(j, order) == 1)
    return math.factorial(n) // centralizer // phi
