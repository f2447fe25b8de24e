"""Permutations of {1..n}, generated subgroups, point orbits, abelian specs.

:class:`Permutation` holds 1-based images for parsing, printing and the
word action.  Arithmetic runs on 0-based images instead: item i of an
image sequence is the image of point i, held as ``bytes`` up to degree 256
and as a tuple above that (:func:`zero_based` picks by degree).  The module
functions :func:`compose`, :func:`inverse` and :func:`conjugate` work on
either, and :func:`closure` is the one closure routine;
:meth:`PermGroup.elements` is that closure turned back into permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence


class GroupSizeError(RuntimeError):
    """Closure enumeration exceeded the configured cap."""


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}; ``images[i-1]`` is the image of point ``i``.

    The degree is always explicit and permutations never auto-extend: the
    same abstract group embedded at different degrees has different orbit
    counts, so the ambient symmetric group matters.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0:
            raise ValueError("degree must be at least 1")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"{self.images} is not a bijection of 1..{n}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition g * h with (g * h)(i) = g(h(i))."""
        if self.degree != other.degree:
            raise ValueError("cannot compose permutations of different degrees")
        return Permutation(tuple([self.images[j - 1] for j in other.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for pos, img in enumerate(self.images, start=1):
            inv[img - 1] = pos
        return Permutation(tuple(inv))

    def cycles(self, include_fixed: bool = False) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its least point, sorted by least point."""
        seen = [False] * (self.degree + 1)
        out = []
        for start in range(1, self.degree + 1):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self(start)
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self(j)
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """All cycle lengths including fixed points, largest first."""
        return tuple(sorted((len(c) for c in self.cycles(include_fixed=True)),
                            reverse=True))

    def is_cycle(self) -> bool:
        """True iff the permutation is a single cycle through all n points."""
        return len(self.cycles(include_fixed=True)) == 1

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cyc)

    @cached_property
    def _gather(self) -> Images:
        # _gather[i] is the 0-based source position feeding output slot i,
        # i.e. inverse(i + 1) - 1; precomputed so act() is a single join.
        return inverse(zero_based(self))

    def act(self, word: str) -> str:
        """Position-permuting action: the i-th output letter is word[g^-1(i)]."""
        if len(word) != self.degree:
            raise ValueError(f"word length {len(word)} != degree {self.degree}")
        return "".join(map(word.__getitem__, self._gather))

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, n={self.degree})"


Images = bytes | tuple[int, ...]


def zero_based(g: Permutation) -> Images:
    """The 0-based images of ``g``: bytes up to degree 256, else a tuple."""
    images = [i - 1 for i in g.images]
    return bytes(images) if g.degree <= 256 else tuple(images)


def to_permutation(p: Images) -> Permutation:
    return Permutation(tuple([i + 1 for i in p]))


def compose(p: Images, q: Images) -> Images:
    """``p`` after ``q``: item i is ``p[q[i]]``."""
    return type(q)(map(p.__getitem__, q))


def inverse(p: Images) -> Images:
    return type(p)(sorted(range(len(p)), key=p.__getitem__))


def conjugate(sigma: Images, sigma_inv: Images, g: Images) -> Images:
    """``sigma g sigma^-1``, given ``sigma`` and its inverse."""
    return type(g)(map(sigma.__getitem__, map(g.__getitem__, sigma_inv)))


def closure(gens: Iterable[Sequence[int]], degree: int,
            limit: int | None = None) -> list[Images] | None:
    """The group ``gens`` generate, each element as its 0-based images.

    The generators may be any sequences of 0-based images; the elements are
    held like :func:`zero_based` holds them.  They come in breadth-first
    order from the identity, each new one a generator after an earlier
    element; the result is None once there would be more than ``limit``.
    """
    ident = zero_based(Permutation.identity(degree))
    gens = [type(ident)(g) for g in gens]
    elements = {ident}
    ordered = [ident]
    for x in ordered:  # grows while it is read: a breadth-first queue
        for g in gens:
            y = compose(g, x)
            if y not in elements:
                if len(elements) == limit:
                    return None
                elements.add(y)
                ordered.append(y)
    return ordered


def parse_cycles(text: str, degree: int | None = None) -> Permutation:
    """Parse cycle notation like ``(1,2,3)(4,5,6)``; ``()`` is the identity.

    Unmentioned points are fixed.  The degree is inferred from the largest
    point when not given explicitly.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty cycle notation")
    if s == "()":
        cycles: list[list[int]] = []
    else:
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"malformed cycle notation {text!r}")
        cycles = []
        for part in s[1:-1].split(")("):
            if not part:
                raise ValueError(f"empty cycle in {text!r}")
            try:
                cycles.append([int(tok) for tok in part.split(",")])
            except ValueError:
                raise ValueError(f"malformed cycle notation {text!r}") from None
    seen: set[int] = set()
    for cyc in cycles:
        for p in cyc:
            if p < 1:
                raise ValueError(f"point {p} out of range")
            if p in seen:
                raise ValueError(f"repeated point {p} in {text!r}")
            seen.add(p)
    n = degree if degree is not None else (max(seen) if seen else None)
    if n is None:
        raise ValueError("degree required to parse the identity")
    if seen and max(seen) > n:
        raise ValueError(f"point {max(seen)} exceeds degree {n}")
    images = list(range(1, n + 1))
    for cyc in cycles:
        for i, p in enumerate(cyc):
            images[p - 1] = cyc[(i + 1) % len(cyc)]
    return Permutation(tuple(images))


@dataclass(frozen=True)
class PointOrbits:
    """Partition of {1..n} into orbits of a permutation group."""

    degree: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.blocks)


class PermGroup:
    """Subgroup of S_n spanned by generator permutations.

    Orbit computations use only the generators; the element closure is
    enumerated lazily and capped, since the harness accepts groups (S_n
    itself, say) whose closure is infeasible to materialize.
    """

    DEFAULT_CAP = 10 ** 6

    def __init__(self, generators: Iterable[Permutation],
                 degree: int | None = None, label: str | None = None):
        gens = tuple(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required when no generators are given")
            degree = gens[0].degree
        if not gens:
            gens = (Permutation.identity(degree),)
        for g in gens:
            if g.degree != degree:
                raise ValueError("generators must share one degree")
        self.degree = degree
        self.generators = gens
        self.label = label

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.degree, self.generators))

    def __repr__(self) -> str:
        return f"PermGroup(<{self.descriptor()}>, n={self.degree})"

    @classmethod
    def trivial(cls, n: int) -> "PermGroup":
        return cls((Permutation.identity(n),), label="id")

    @classmethod
    def symmetric(cls, n: int) -> "PermGroup":
        if n <= 1:  # identity(n) rejects n < 1
            return cls((Permutation.identity(n),), label="sym")
        transposition = parse_cycles("(1,2)", n)
        rotation = Permutation(tuple(range(2, n + 1)) + (1,))
        return cls((transposition, rotation), label="sym")

    @classmethod
    def cyclic(cls, n: int) -> "PermGroup":
        if n <= 1:
            return cls((Permutation.identity(n),), label="cyc")
        return cls((Permutation(tuple(range(2, n + 1)) + (1,)),), label="cyc")

    def descriptor(self) -> str:
        if self.label:
            return self.label
        return ";".join(g.cycle_string() for g in self.generators)

    def elements(self) -> tuple[Permutation, ...]:
        """:func:`closure` of the generators: breadth-first from the identity.

        More than ``DEFAULT_CAP`` elements raise :class:`GroupSizeError`.
        """
        found = closure(map(zero_based, self.generators), self.degree, self.DEFAULT_CAP)
        if found is None:
            raise GroupSizeError(
                f"closure of <{self.descriptor()}> exceeds cap {self.DEFAULT_CAP}; "
                "use generator-based orbit algorithms instead")
        return tuple(map(to_permutation, found))

    @property
    def order(self) -> int:
        return len(self.elements())

    def point_orbits(self) -> PointOrbits:
        seen = [False] * (self.degree + 1)
        blocks = []
        for start in range(1, self.degree + 1):
            if seen[start]:
                continue
            orbit = {start}
            seen[start] = True
            frontier = [start]
            while frontier:
                fresh = []
                for point in frontier:
                    for g in self.generators:
                        img = g(point)
                        if not seen[img]:
                            seen[img] = True
                            orbit.add(img)
                            fresh.append(img)
                frontier = fresh
            blocks.append(tuple(sorted(orbit)))
        return PointOrbits(self.degree, tuple(blocks))

    @property
    def epsilon(self) -> int:
        """Number of orbits of the group on the points {1..n}."""
        return self.point_orbits().count


def parse_group_spec(text: str, degree: int) -> PermGroup:
    """Parse the group-spec grammar used by the command line.

    Accepted forms: ``id`` | ``sym`` | ``cyc`` | cycle notation, with several
    generators separated by ``;`` | ``abc:a,b,c`` (degree must equal a+b+c) |
    ``file:PATH``, a file of ``n cycle-notation`` lines.  Every line of the
    file is parsed and validated, a later line for the same ``n`` wins, and a
    file without a line for ``degree`` is an error.
    """
    if text == "id":
        return PermGroup.trivial(degree)
    if text == "sym":
        return PermGroup.symmetric(degree)
    if text == "cyc":
        return PermGroup.cyclic(degree)
    if text.startswith("abc:"):
        try:
            a, b, c = (int(tok) for tok in text[len("abc:"):].split(","))
        except ValueError:
            raise ValueError(f"bad abc spec {text!r}") from None
        if a + b + c != degree:
            raise ValueError(f"abc parameters sum to {a + b + c}, not the degree {degree}")
        return PermGroup((abc_permutation(a, b, c),))
    if text.startswith("("):
        return PermGroup(tuple(parse_cycles(part, degree)
                               for part in text.split(";")))
    if text.startswith("file:"):
        path = text[len("file:"):]
        table = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'n cycle-notation'")
            try:
                n = int(parts[0])
                table[n] = tuple(parse_cycles(tok, n) for tok in parts[1].split(";"))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        if degree not in table:
            raise ValueError(f"group file {path} has no entry for n={degree}")
        return PermGroup(table[degree])
    raise ValueError(f"unrecognized group spec {text!r}")


# ---------------------------------------------------------------------------
# interval-exchange permutations


def abc_permutation(a: int, b: int, c: int) -> Permutation:
    """Discrete 3-interval exchange on {1..a+b+c}.

    The points are split into consecutive intervals of lengths c, b, a which
    are rearranged in the order a, b, c; zero lengths are allowed.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("interval lengths must be non-negative")
    n = a + b + c
    if n == 0:
        raise ValueError("at least one interval length must be positive")
    images = []
    for i in range(1, n + 1):
        if i <= c:
            images.append(i + a + b)
        elif i <= c + b:
            images.append(i + a - c)
        else:
            images.append(i - b - c)
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# abstract finite abelian groups


def prime_power_parts(m: int) -> list[int]:
    """Prime-power factors of ``m`` >= 2, in increasing value."""
    parts = []
    rem = m
    p = 2
    while p * p <= rem:
        if rem % p == 0:
            q = 1
            while rem % p == 0:
                rem //= p
                q *= p
            parts.append(q)
        p += 1
    if rem > 1:
        parts.append(rem)
    return sorted(parts)


def _is_prime_power(m: int) -> bool:
    return m >= 2 and prime_power_parts(m) == [m]


@dataclass(frozen=True)
class AbelianSpec:
    """A finite abelian group as an ordered tuple of cyclic orders.

    Each modulus is 1 or a prime power.  Trivial factors are kept explicitly
    because witness constructions pad with them and the padding should be
    visible in reports.
    """

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        for m in self.moduli:
            if m != 1 and not _is_prime_power(m):
                raise ValueError(f"modulus {m} is neither 1 nor a prime power; "
                                 "normalize composite moduli first")

    @property
    def trace(self) -> int:
        return sum(self.moduli)

    def padded(self, n: int) -> "AbelianSpec":
        """Append trivial factors until the trace reaches ``n``."""
        if self.trace > n:
            raise ValueError(f"trace {self.trace} exceeds the target degree {n}")
        return AbelianSpec(self.moduli + (1,) * (n - self.trace))

    def embed(self) -> PermGroup:
        """Embed into S_trace as disjoint rotation cycles of the given orders."""
        gens = []
        offset = 0
        n = self.trace
        for m in self.moduli:
            images = list(range(1, n + 1))
            for j in range(1, m + 1):
                images[offset + j - 1] = offset + (j % m) + 1
            gens.append(Permutation(tuple(images)))
            offset += m
        return PermGroup(tuple(gens), n)

    @classmethod
    def parse(cls, text: str) -> "AbelianSpec":
        """Parse ``Z2xZ4xZ3`` or ``[2,4,3]`` into a normalized spec."""
        s = text.strip()
        try:
            if s.startswith("[") and s.endswith("]"):
                moduli = [int(tok) for tok in s[1:-1].split(",")]
            elif s.startswith("Z"):
                moduli = [int(part[1:]) for part in s.split("x")]
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"unrecognized abelian spec {text!r}") from None
        return normalize_spec(moduli)


def normalize_spec(moduli: Sequence[int]) -> AbelianSpec:
    """Split composite moduli into their prime-power parts, keeping 1s."""
    out: list[int] = []
    for m in moduli:
        if m < 1:
            raise ValueError(f"modulus {m} must be at least 1")
        if m == 1:
            out.append(1)
        else:
            out.extend(prime_power_parts(m))
    return AbelianSpec(tuple(out))
