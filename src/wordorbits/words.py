"""Infinite words at desk scale: prefix generators, factor sets, balance.

Finite words are plain strings over an alphabet of single characters; the
Sturmian constructions use the binary alphabet {0, 1} with the lexicographic
order 0 < 1.  Every interface that talks about positions is 1-based, matching
the permutation machinery in :mod:`wordorbits.perm`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

#: Hard ceiling on the letters any factor set is read from.
PREFIX_CAP = 1 << 22
#: Hard ceiling on the letters any factor set holds: its size times n.
HELD_CAP = 1 << 29

APERIODIC_YES = "yes-by-theory"
APERIODIC_NO = "no"
APERIODIC_UNKNOWN = "unknown"


class StabilizationError(RuntimeError):
    """Factor enumeration needed more letters than the prefix or held cap."""


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
        digits = itertools.chain(self.directive, itertools.repeat(self.directive[-1]))
        for digit in digits:
            if len(cur) * digit >= length:
                # s[k] starts with cur * digit; copies past length are never read
                return (cur * -(-length // len(cur)))[:length]
            prev, cur = cur, cur * digit + prev


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
        # The fixed point is u = σ(u[0])σ(u[1])…, so appending the images of
        # the letters not substituted yet keeps word == σ(word[:done]) on u.
        word, done = list(table[self.seed]), 1
        while len(word) < length:
            end = len(word)
            word += "".join(map(table.__getitem__, word[done:end]))
            done = end
        return "".join(word[:length])


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


def parikh_key(word: str) -> tuple[tuple[str, int], ...]:
    """Hashable canonical form of the Parikh vector."""
    return tuple(sorted(Counter(word).items()))


def restrict(word: str, positions: Iterable[int]) -> str:
    """Subsequence of ``word`` at the given 1-based positions, in order."""
    pts = sorted(set(positions))
    if pts and (pts[0] < 1 or pts[-1] > len(word)):
        raise ValueError(f"positions must lie in 1..{len(word)}")
    return "".join(word[i - 1] for i in pts)


# ---------------------------------------------------------------------------
# factor sets


@dataclass(frozen=True)
class FactorSet:
    """The length-``n`` factors of a word source, lexicographically sorted.

    ``source_prefix_length`` counts the letters the factors were read from.
    ``provenance`` says how far the set is known to be complete:
    ``certified`` (theory says those letters hold every factor) or
    ``explicit-prefix`` (the factors of the given letters only).
    """

    n: int
    members: tuple[str, ...]
    source_prefix_length: int
    provenance: str

    def __post_init__(self) -> None:
        if any(len(w) != self.n for w in self.members):
            raise ValueError("all members must have the declared length")
        if any(a >= b for a, b in zip(self.members, self.members[1:])):
            raise ValueError("members must be distinct and sorted")
        if self.provenance not in ("certified", "explicit-prefix"):
            raise ValueError(f"unknown provenance {self.provenance!r}")

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

    @cached_property
    def parikh_ids(self) -> dict[str, int]:
        """Each member's Parikh class, numbered by least member; computed once."""
        numbers: dict[tuple[tuple[str, int], ...], int] = {}
        return {w: numbers.setdefault(parikh_key(w), len(numbers)) for w in self.members}

    def parikh_classes(self) -> tuple[tuple[str, ...], ...]:
        """Parikh classes of the members, classes ordered by least member."""
        groups: dict[int, list[str]] = {}
        for w, i in self.parikh_ids.items():
            groups.setdefault(i, []).append(w)
        return tuple([tuple(g) for g in groups.values()])


def _cap_error(source: WordSource, n: int) -> StabilizationError:
    return StabilizationError(f"factors of length {n} of {source.name} need more "
                              f"than the prefix cap of {PREFIX_CAP} letters")


def _held_error(source: WordSource, n: int) -> StabilizationError:
    return StabilizationError(f"factors of length {n} of {source.name} would hold "
                              f"more than the cap of {HELD_CAP} letters")


def _collect_windows(source: WordSource, texts: Iterable[str], n: int) -> set[str]:
    """The distinct length-n windows of the texts, collected in one set.

    Each window is added as soon as it is sliced, so a repeat is freed at
    once, and StabilizationError is raised as soon as the set would hold
    more than ``HELD_CAP`` letters.
    """
    found, limit = set(), HELD_CAP // n
    for text in texts:
        start, end = 0, len(text) - n + 1
        while start < end:
            # each window adds at most one member, so found stays within limit + 1
            stop = min(end, start + limit + 1 - len(found))
            found.update(text[i:i + n] for i in range(start, stop))
            if len(found) > limit:
                raise _held_error(source, n)
            start = stop
    return found


def _sturmian_windows(source: SturmianWord, n: int) -> tuple[set[str], int]:
    """Windows of a doubling prefix, up to the n + 1 a Sturmian word has."""
    length, start, found = min(2 * n, PREFIX_CAP), 0, set()
    while True:
        text = source.prefix(length)
        found.update(text[i:i + n] for i in range(start, length - n + 1))
        if len(found) > n:
            break
        if length == PREFIX_CAP:
            raise _cap_error(source, n)
        start, length = length - n + 1, min(2 * length, PREFIX_CAP)
    if len(found) != n + 1:
        raise InternalCheckError(
            f"sturmian source {source.name} yielded {len(found)} factors "
            f"of length {n}, expected {n + 1}")
    return found, length


def _substitution_windows(source: SubstitutionWord, n: int) -> tuple[set[str], int]:
    """Every length-n factor of the fixed point u, closed under desubstitution.

    Let τ = σ^k with k >= 1, so u = τ(u).  A factor first occurring at p > 0
    starts inside a block τ(u[i]) with i < p, so it is a window of τ(w) that
    starts inside τ(w[0]), where the factor w = u[i:i+n] occurs earlier; by
    induction, closing {u[:n]} under such windows gives every factor
    (Queffélec, Substitution Dynamical Systems, ch. 5).  These windows lie in
    τ(w[:m]): m = 2 with k least such that every image is at least n - 1
    long, and m = n with k = 1 when some image stays shorter for ever.  Each
    substituted prefix v reads |τ(v[0])| + n - 1 letters.
    """
    table = dict(source.rules)
    letters, todo = set(), [source.seed]
    while todo:
        if (c := todo.pop()) not in letters:
            letters.add(c)
            todo.extend(table[c])
    images = table  # the images of τ = σ, until k is known
    # Image lengths never shrink, and from step |A| on an unbounded image
    # grows at least once in every |A| steps; so a least length that held
    # over |A| steps, from step 2|A| on, is a bounded letter's.
    lengths, lows = {c: len(table[c]) for c in letters}, []
    while (low := min(lengths.values())) < n - 1:
        lows.append(low)
        if len(lows) > 2 * len(letters) and lows[-1 - len(letters)] == low:
            m = n
            break
        lengths = {c: sum(map(lengths.__getitem__, table[c])) for c in letters}
    else:
        m = min(2, n)
        # Every letter heads some substituted prefix, so this many are read.
        if sum(lengths.values()) > PREFIX_CAP:
            raise _cap_error(source, n)
        for _ in lows:
            images = {c: "".join(map(images.__getitem__, table[c])) for c in letters}
    # Close the prefixes v = w[:m] first, so the cap holds before the
    # windows, |τ(v[0])| of length n per prefix, are built.
    texts, todo, read = {}, [source.prefix(m)], 0
    while todo:
        if (v := todo.pop()) in texts:
            continue
        texts[v] = text = images[v[0]] + "".join(map(images.__getitem__, v[1:]))[:n - 1]
        read += len(text)
        if read > PREFIX_CAP:
            raise _cap_error(source, n)
        todo.extend({text[i:i + m] for i in range(len(images[v[0]]))})
    return _collect_windows(source, texts.values(), n), read


def factors(source: WordSource, n: int) -> FactorSet:
    """Every length-``n`` factor occurring in the infinite word.

    Every infinite source is read off what theory says suffices, and the set
    is certified: a Sturmian word has exactly n + 1 factors (Morse-Hedlund),
    a periodic word's are the windows of n // p + 2 periods, and a
    substitution's are closed under desubstitution from its first n letters
    (see :func:`_substitution_windows`).  Explicit sources use their whole
    prefix, a lower approximation by construction.  Every path reads at most
    ``PREFIX_CAP`` letters and holds at most ``HELD_CAP``, else
    :class:`StabilizationError`.
    """
    if n < 1:
        raise ValueError("factor length must be at least 1")
    if source.aperiodic == APERIODIC_YES and n * (n + 1) > HELD_CAP:
        # Morse-Hedlund: an aperiodic word has at least n + 1 factors of length n
        raise _held_error(source, n)
    provenance = "certified"
    if source.kind == "explicit":
        if n > len(source.bits):
            raise ValueError("explicit prefix is shorter than the requested factor length")
        found = _collect_windows(source, [source.bits], n)
        read, provenance = len(source.bits), "explicit-prefix"
    elif source.kind == "sturmian":
        found, read = _sturmian_windows(source, n)
    elif source.kind == "periodic":
        reps = n // len(source.pattern) + 2
        read = reps * len(source.pattern)
        if read > PREFIX_CAP:
            raise _cap_error(source, n)
        found = _collect_windows(source, [source.pattern * reps], n)
    else:
        found, read = _substitution_windows(source, n)
    return FactorSet(n, tuple(sorted(found)), read, provenance)


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

    Defined for sturmian-kind sources, whose bispecial factors are the
    central words: the palindromic prefixes of the characteristic word, of
    lengths ``|s[k-1]| * j + |s[k-2]| - 2`` for ``j = 1..d_k`` (de Luca 1997).
    The ladder starts with the empty word.
    """
    if source.kind != "sturmian":
        raise ValueError("the bispecial ladder requires a sturmian-kind source")
    word = source.prefix(up_to + 1)
    out: list[str] = []
    prev, cur = 1, 1  # |s[k-2]|, |s[k-1]|
    for digit in itertools.chain(source.directive, itertools.repeat(source.directive[-1])):
        for j in range(1, digit + 1):
            length = cur * j + prev - 2
            if length > up_to:
                return tuple(out)
            out.append(word[:length])
        prev, cur = cur, cur * digit + prev

