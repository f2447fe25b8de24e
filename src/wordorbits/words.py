"""Infinite words at desk scale: prefix generators, factor sets, balance.

Finite words are plain strings over an alphabet of single characters; the
Sturmian constructions use the binary alphabet {0, 1} with the lexicographic
order 0 < 1.  Every interface that talks about positions is 1-based, matching
the permutation machinery in :mod:`wordorbits.perm`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, NamedTuple

#: Hard ceiling on the prefix length used while stabilizing a factor set.
PREFIX_CAP = 1 << 22

APERIODIC_YES = "yes-by-theory"
APERIODIC_NO = "no"
APERIODIC_UNKNOWN = "unknown"


class StabilizationError(RuntimeError):
    """Factor enumeration did not stabilize below the prefix cap."""


class InternalCheckError(RuntimeError):
    """A theory-backed runtime check failed; this indicates a library bug."""


# ---------------------------------------------------------------------------
# word sources


@dataclass(frozen=True)
class SturmianWord:
    """Characteristic Sturmian word defined by a directive sequence.

    The digits ``d1, d2, ...`` drive the standard-word recursion
    ``s[-1] = "1"``, ``s[0] = "0"``, ``s[k] = s[k-1] * d_k + s[k-2]``,
    with the last digit repeating forever.  Successive ``s[k]`` are nested
    prefixes of the limit word, which makes :meth:`prefix` consistent across
    lengths.
    """

    directive: tuple[int, ...]
    label: str | None = None

    kind = "sturmian"
    aperiodic = APERIODIC_YES

    def __post_init__(self) -> None:
        if not self.directive:
            raise ValueError("directive sequence must be non-empty")
        if any(d < 1 for d in self.directive):
            raise ValueError("directive digits must be positive integers")

    @property
    def name(self) -> str:
        return self.label or "sturmian:" + ",".join(map(str, self.directive))

    def prefix(self, length: int) -> str:
        if length < 1:
            raise ValueError("prefix length must be at least 1")
        prev, cur = "1", "0"
        k = 0
        while len(cur) < length:
            digit = self.directive[min(k, len(self.directive) - 1)]
            prev, cur = cur, cur * digit + prev
            k += 1
        return cur[:length]


@dataclass(frozen=True)
class SubstitutionWord:
    """Fixed point of a non-erasing substitution prolongable on its seed."""

    rules: tuple[tuple[str, str], ...]
    seed: str
    label: str | None = None
    aperiodic: str = APERIODIC_UNKNOWN

    kind = "substitution"

    def __post_init__(self) -> None:
        table = dict(self.rules)
        if len(table) != len(self.rules):
            raise ValueError("duplicate substitution rule")
        if len(self.seed) != 1:
            raise ValueError("seed must be a single letter")
        for letter, image in self.rules:
            if len(letter) != 1:
                raise ValueError(f"rule key {letter!r} is not a single letter")
            if not image:
                raise ValueError(f"erasing rule for letter {letter!r}")
        if self.seed not in table:
            raise ValueError("no rule for the seed letter")
        seed_image = table[self.seed]
        if seed_image[0] != self.seed or len(seed_image) == 1:
            raise ValueError("substitution is not prolongable on the seed")
        used = {c for _, image in self.rules for c in image} | {self.seed}
        missing = used - table.keys()
        if missing:
            raise ValueError(f"letters without rules: {sorted(missing)}")

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        body = ",".join(f"{a}={b}" for a, b in self.rules)
        return f"subst:{body};seed={self.seed}"

    def prefix(self, length: int) -> str:
        if length < 1:
            raise ValueError("prefix length must be at least 1")
        table = dict(self.rules)
        word = self.seed
        while len(word) < length:
            # The image of a prefix is a prefix of the image, so truncating
            # before each application stays on the fixed point.
            word = "".join(table[ch] for ch in word[:length])
        return word[:length]


@dataclass(frozen=True)
class PeriodicWord:
    """Infinite repetition of a finite pattern."""

    pattern: str
    label: str | None = None

    kind = "periodic"
    aperiodic = APERIODIC_NO

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("pattern must be non-empty")

    @property
    def name(self) -> str:
        return self.label or f"periodic:{self.pattern}"

    def prefix(self, length: int) -> str:
        if length < 1:
            raise ValueError("prefix length must be at least 1")
        reps = length // len(self.pattern) + 1
        return (self.pattern * reps)[:length]


@dataclass(frozen=True)
class ExplicitWord:
    """A word given by an explicit finite prefix; nothing beyond it is known."""

    bits: str
    label: str | None = None

    kind = "explicit"
    aperiodic = APERIODIC_UNKNOWN

    def __post_init__(self) -> None:
        if not self.bits:
            raise ValueError("explicit prefix must be non-empty")

    @property
    def name(self) -> str:
        return self.label or f"prefix:{self.bits}"

    def prefix(self, length: int) -> str:
        if length < 1:
            raise ValueError("prefix length must be at least 1")
        if length > len(self.bits):
            raise ValueError(
                f"explicit source only provides {len(self.bits)} letters, {length} requested")
        return self.bits[:length]


WordSource = SturmianWord | SubstitutionWord | PeriodicWord | ExplicitWord


def fibonacci() -> SturmianWord:
    """The Fibonacci word 0100101001001..., as a directive-sequence source."""
    return SturmianWord((1,), label="fib")


def thue_morse() -> SubstitutionWord:
    """The Thue-Morse word 0110100110010110..., aperiodic by construction."""
    return SubstitutionWord((("0", "01"), ("1", "10")), "0", label="tm",
                            aperiodic=APERIODIC_YES)


def substitution(rules: Mapping[str, str], seed: str,
                 aperiodic: str = APERIODIC_UNKNOWN) -> SubstitutionWord:
    """Build a substitution source from a rule mapping."""
    return SubstitutionWord(tuple(sorted(rules.items())), seed, aperiodic=aperiodic)


def parse_word_spec(text: str) -> WordSource:
    """Parse the word-spec grammar used by the command line.

    Accepted forms: ``fib`` | ``tm`` | ``sturmian:d1,d2,...`` |
    ``subst:0=01,1=0;seed=0`` | ``periodic:PATTERN`` | ``prefix:BITS``.
    """
    if text == "fib":
        return fibonacci()
    if text == "tm":
        return thue_morse()
    if text.startswith("sturmian:"):
        body = text[len("sturmian:"):]
        try:
            digits = tuple(int(tok) for tok in body.split(","))
        except ValueError:
            raise ValueError(f"bad directive digits in {text!r}") from None
        return SturmianWord(digits)
    if text.startswith("subst:"):
        body = text[len("subst:"):]
        parts = body.split(";")
        if len(parts) != 2 or not parts[1].startswith("seed="):
            raise ValueError(f"substitution spec must look like subst:0=01,1=0;seed=0, got {text!r}")
        rules = {}
        for item in parts[0].split(","):
            if "=" not in item:
                raise ValueError(f"bad substitution rule {item!r}")
            letter, image = item.split("=", 1)
            if letter in rules:
                raise ValueError(f"duplicate rule for {letter!r}")
            rules[letter] = image
        seed = parts[1][len("seed="):]
        return SubstitutionWord(tuple(sorted(rules.items())), seed)
    if text.startswith("periodic:"):
        return PeriodicWord(text[len("periodic:"):])
    if text.startswith("prefix:"):
        return ExplicitWord(text[len("prefix:"):])
    raise ValueError(f"unrecognized word spec {text!r}")


# ---------------------------------------------------------------------------
# finite-word utilities


def parikh(word: str) -> Counter:
    """Letter-occurrence counts of ``word``."""
    return Counter(word)


def parikh_key(word: str) -> tuple[tuple[str, int], ...]:
    """Hashable canonical form of the Parikh vector."""
    return tuple(sorted(Counter(word).items()))


def abelian_equiv(u: str, v: str) -> bool:
    """True iff ``u`` and ``v`` have equal Parikh vectors."""
    if len(u) != len(v):
        raise ValueError("abelian equivalence is only defined for equal lengths")
    return Counter(u) == Counter(v)


def restrict(word: str, positions: Iterable[int]) -> str:
    """Subsequence of ``word`` at the given 1-based positions, in order."""
    pts = sorted(set(positions))
    if pts and (pts[0] < 1 or pts[-1] > len(word)):
        raise ValueError(f"positions must lie in 1..{len(word)}")
    return "".join(word[i - 1] for i in pts)


def reverse(word: str) -> str:
    return word[::-1]


def parikh_classes(members: Iterable[str]) -> tuple[tuple[str, ...], ...]:
    """Partition words into Parikh classes, classes ordered by least member."""
    groups: dict[tuple[tuple[str, int], ...], list[str]] = {}
    for w in sorted(members):
        groups.setdefault(parikh_key(w), []).append(w)
    return tuple(tuple(g) for g in groups.values())


# ---------------------------------------------------------------------------
# factor sets


@dataclass(frozen=True)
class FactorSet:
    """The length-``n`` factors of a word source, lexicographically sorted."""

    n: int
    members: tuple[str, ...]
    source_prefix_length: int

    def __post_init__(self) -> None:
        if any(len(w) != self.n for w in self.members):
            raise ValueError("all members must have the declared length")
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("members must be distinct and sorted")

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, word: str) -> bool:
        return word in self.member_set

    @cached_property
    def member_set(self) -> frozenset[str]:
        return frozenset(self.members)

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({c for w in self.members for c in w}))

    def parikh_classes(self) -> tuple[tuple[str, ...], ...]:
        return parikh_classes(self.members)


def _windows(text: str, n: int) -> set[str]:
    return {text[i:i + n] for i in range(len(text) - n + 1)}


@lru_cache(maxsize=None)
def factors(source: WordSource, n: int) -> FactorSet:
    """Every length-``n`` factor occurring in the infinite word.

    Factors are read off a finite prefix, doubling its length until the
    factor set computed from length L equals the one from length 2L.  For
    sturmian-kind sources the count is additionally checked against the
    exact value n + 1.  Explicit sources use their whole given prefix; for
    them the result is a lower approximation by construction.
    """
    if n < 1:
        raise ValueError("factor length must be at least 1")
    if source.kind == "explicit":
        word = source.bits
        if n > len(word):
            raise ValueError("explicit prefix is shorter than the requested factor length")
        return FactorSet(n, tuple(sorted(_windows(word, n))), len(word))
    length = max(4096, 64 * n)
    while True:
        if 2 * length > PREFIX_CAP:
            raise StabilizationError(
                f"factors of length {n} of {source.name} did not stabilize "
                f"below the prefix cap {PREFIX_CAP}")
        small = _windows(source.prefix(length), n)
        large = _windows(source.prefix(2 * length), n)
        if small == large:
            break
        length *= 2
    members = tuple(sorted(large))
    if source.kind == "sturmian" and len(members) != n + 1:
        raise InternalCheckError(
            f"sturmian source {source.name} yielded {len(members)} factors "
            f"of length {n}, expected {n + 1}")
    return FactorSet(n, members, 2 * length)


class BalanceReport(NamedTuple):
    balanced: bool
    length: int | None = None
    witness: tuple[str, str] | None = None


def is_balanced(source: WordSource, n_max: int) -> BalanceReport:
    """Check the balance inequality over all factor lengths up to ``n_max``.

    On failure the report carries the first offending length together with a
    witness pair whose counts of some letter differ by more than one.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    for n in range(1, n_max + 1):
        fs = factors(source, n)
        for letter in fs.alphabet:
            rich = max(fs.members, key=lambda w: w.count(letter))
            poor = min(fs.members, key=lambda w: w.count(letter))
            if rich.count(letter) - poor.count(letter) > 1:
                return BalanceReport(False, n, (rich, poor))
    return BalanceReport(True)


def special_factors(source: WordSource,
                    n: int) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Left special, right special and bispecial factors of length ``n``."""
    if n < 0:
        raise ValueError("length must be non-negative")
    longer = factors(source, n + 1)
    base = factors(source, n).members if n >= 1 else ("",)
    present = longer.member_set
    alphabet = longer.alphabet
    left = tuple(u for u in base
                 if sum(a + u in present for a in alphabet) >= 2)
    right = tuple(u for u in base
                  if sum(u + a in present for a in alphabet) >= 2)
    bispecial = tuple(u for u in left if u in right)
    return left, right, bispecial


def bispecial_ladder(source: WordSource, up_to: int) -> tuple[str, ...]:
    """Bispecial factors of length <= ``up_to``, in increasing length.

    Defined for sturmian-kind sources, whose bispecial factors are unique per
    length and palindromic; the ladder starts with the empty word.
    """
    if source.kind != "sturmian":
        raise ValueError("the bispecial ladder requires a sturmian-kind source")
    out: list[str] = []
    for n in range(up_to + 1):
        _, _, bis = special_factors(source, n)
        if len(bis) > 1:
            raise InternalCheckError(
                f"{source.name} has {len(bis)} bispecial factors of length {n}")
        for w in bis:
            if w != w[::-1]:
                raise InternalCheckError(
                    f"non-palindromic bispecial factor {w!r} for {source.name}")
            out.append(w)
    return tuple(out)


def is_rich_in(word: str, letter: str, fs: FactorSet) -> bool:
    """True iff ``word`` maximizes the count of ``letter`` over ``fs``."""
    if word not in fs:
        raise ValueError(f"{word!r} is not a member of the factor set")
    best = max(w.count(letter) for w in fs.members)
    return word.count(letter) == best
