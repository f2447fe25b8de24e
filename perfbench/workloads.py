"""The benchmark's workloads: seeded inputs, the command list, the output checks.

A workload is a fixed list of CLI commands that one session runs in order.
The seed chooses the words (and, where the cost allows it, the points of
the permutations) from a stated family; it never changes n, m or the
moduli, so every seed asks for the same amount of work.  Each command is
paired with a check that compares its output with a fact from
:mod:`oracles`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from oracles import (block_classes, bracketing_central,
                     conjugate_cyclic_subgroups, cycle_type,
                     eventually_constant_factors, expect, sturmian_factors,
                     sturmian_prefix, thue_morse_factors)


@dataclass(frozen=True)
class Step:
    """One command; ``check`` runs in the parent on its stdout, after timing."""

    argv: tuple[str, ...]
    check: Callable[[str], None]


# Directive head of the orbit-sym word.  The sym orbit search visits C(n, k)
# words per class, so its work is fixed by the letter counts of the factors;
# the head fixes those up to length 20.  Sturmian words with equal counts up
# to a length have equal factors up to it, so the seeded tail changes the
# factors only from length 21 on, beyond the lengths the workload reads.
STURMIAN_HEAD = (1, 1, 1, 1)
DIRECTIVE_LENGTH = 12

# Sizes keep a session near a second; README.md, "Noise", says why.
SYM_TM_N = 16
SYM_STURMIAN_N = 16
ABELIAN_MODULI = (5, 7, 8, 9)              # trace 29
CONJUGATE_CYCLES = (13, 9, 7)              # plus one fixed point: degree 30
CONJUGATE_DEGREE = 30
SCAN_CYCLES = (3, 3)                       # and a fixed point: degree 7
SCAN_DEGREE = 7
LADDER_M = (64, 72)
LADDER_MODULUS = 59                        # witness at n = 60
FACTORS_N = 1000
FACTORS_SLOW_N = 3
SLOW_GROWTH = 3                            # letters added per round


# ---------------------------------------------------------------------------
# seeded inputs


def _directive(rng: random.Random, head: tuple[int, ...]) -> tuple[int, ...]:
    return head + tuple(rng.choice((1, 2))
                        for _ in range(DIRECTIVE_LENGTH - len(head)))


def _ladder_directive(rng: random.Random, m: int) -> tuple[int, ...]:
    """A word whose first central word of length >= m - 2 is longer than m.

    ``fine_wilf_data`` first scans the ladder up to m and, finding no such
    word there, scans again up to 2m; most words need the second scan.
    Drawing only from those keeps the work equal across seeds, with the
    re-scan always in it.
    """
    while True:
        directive = _directive(rng, (1,))
        _, cur = bracketing_central(directive, m)
        if m < cur <= 2 * m:
            return directive


def _word_spec(directive: tuple[int, ...]) -> str:
    return "sturmian:" + ",".join(map(str, directive))


def _random_cycles(rng: random.Random, lengths: tuple[int, ...],
                   degree: int) -> list[tuple[int, ...]]:
    points = list(range(1, degree + 1))
    rng.shuffle(points)
    cycles, start = [], 0
    for length in lengths:
        cycles.append(tuple(points[start:start + length]))
        start += length
    return cycles


def _cycle_notation(cycles: list[tuple[int, ...]]) -> str:
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)


def _command(*argv: str) -> tuple[str, ...]:
    return argv + ("--format", "structured")


# ---------------------------------------------------------------------------
# output checks


def _load(text: str, kind: str) -> dict:
    data = json.loads(text)
    expect(data.get("kind") == kind, f"kind {data.get('kind')!r}, expected {kind!r}")
    return data


def check_sym_table(expected_p: dict[int, int], sturmian: bool):
    """sym has one point orbit, so slack = p - 2; the verdict must be pass."""
    def check(text: str) -> None:
        data = _load(text, "verify-bound")
        expect(data["verdict"] == "pass", f"verdict {data['verdict']!r}")
        rows = data["rows"]
        expect([r["n"] for r in rows] == sorted(expected_p), "rows cover other lengths")
        for r in rows:
            n = r["n"]
            expect(r["epsilon"] == 1, f"n={n}: epsilon {r['epsilon']}, expected 1")
            expect(r["p"] == expected_p[n], f"n={n}: p {r['p']}, expected {expected_p[n]}")
            expect(r["slack"] == r["p"] - 2, f"n={n}: slack {r['slack']}")
        expect(data["sturmian_consistent"] is sturmian,
               f"sturmian_consistent {data['sturmian_consistent']}")
    return check


def check_witness(directive: tuple[int, ...], n: int, sizes: tuple[int, ...]):
    """Classes are the block classes over all blocks, one more than the blocks."""
    def check(text: str) -> None:
        data = _load(text, "witness")
        expect(data["n"] == n, f"n {data['n']}")
        expect(tuple(data["padded_sizes"]) == sizes, f"sizes {data['padded_sizes']}")
        start, blocks = 1, []
        for size in sizes:
            blocks.append(list(range(start, start + size)))
            start += size
        expect(data["blocks"] == blocks, "blocks are not consecutive intervals")
        members = sturmian_factors(directive, n)
        classes = sorted(sorted(cls) for cls in data["classes"])
        expect(sorted(w for cls in classes for w in cls) == sorted(members),
               "classes do not partition the factor set")
        expect(classes == block_classes(members, sizes),
               "classes differ from the block classes")
        expect(data["epsilon"] == len(sizes), f"epsilon {data['epsilon']}")
        expect(data["class_count"] == len(sizes) + 1, f"class_count {data['class_count']}")
        expect(data["passed"] is True, "passed is not true")
    return check


def check_scan(n: int, cycles: list[tuple[int, ...]]):
    """One row per conjugate subgroup; each count meets the bound and Fact_n."""
    ctype = cycle_type(cycles, n)

    def check(text: str) -> None:
        data = _load(text, "conjugacy-scan")
        counts = [row["classes"] for row in data["subgroups"]]
        expected = conjugate_cyclic_subgroups(ctype)
        expect(len(counts) == expected, f"{len(counts)} subgroups, expected {expected}")
        expect(all(len(ctype) + 1 <= c <= n + 1 for c in counts),
               "a class count is outside [epsilon + 1, n + 1]")
        expect(data["min_classes"] == min(counts) and data["max_classes"] == max(counts),
               "min/max do not match the rows")
    return check


def check_fine_wilf(directive: tuple[int, ...], m: int):
    """w and w_prev are the palindromic prefixes at consecutive central lengths."""
    def check(text: str) -> None:
        data = _load(text, "fine-wilf")
        expect(data["m"] == m, f"m {data['m']}")
        prev_len, cur_len = bracketing_central(directive, m)
        prefix = sturmian_prefix(directive, cur_len)
        for key, length in (("w", cur_len), ("w_prev", prev_len)):
            word = data[key]
            expect(word == prefix[:length], f"{key} is not the prefix of length {length}")
            expect(word == word[::-1], f"{key} is not a palindrome")
        expect(data["a"] + data["b"] + data["c"] == m, "a + b + c != m")
    return check


def check_factors(expected: Callable[[], frozenset[str]], n: int, fmt: str):
    def check(text: str) -> None:
        members = sorted(expected())
        if fmt == "structured":
            data = _load(text, "factors")
            expect(data["n"] == n, f"n {data['n']}")
            expect(data["members"] == members, "members differ from the expected set")
            return
        lines = text.splitlines()
        expect(lines[0].startswith("# wordorbits ") and lines[1].startswith("# command: "),
               "missing header")
        expect(lines[2:4] == [f"n: {n}", f"count: {len(members)}"], f"bad summary {lines[2:4]}")
        expect(lines[4:] == members, "members differ from the expected set")
    return check


# ---------------------------------------------------------------------------
# workloads


def orbit_sym(rng: random.Random) -> list[Step]:
    directive = _directive(rng, STURMIAN_HEAD)
    tm_p = {n: 2 if n % 2 else 3 for n in range(1, SYM_TM_N + 1)}
    sturmian_p = {n: 2 for n in range(1, SYM_STURMIAN_N + 1)}
    return [
        Step(_command("verify-theorem1", "--word", "tm", "--groups", "sym",
                      "--n", f"1..{SYM_TM_N}"),
             check_sym_table(tm_p, sturmian=False)),
        Step(_command("verify-theorem1", "--word", _word_spec(directive),
                      "--groups", "sym", "--n", f"1..{SYM_STURMIAN_N}"),
             check_sym_table(sturmian_p, sturmian=True)),
    ]


def witness(rng: random.Random) -> list[Step]:
    directive = _directive(rng, (1,))
    word = _word_spec(directive)
    trace = sum(ABELIAN_MODULI)
    sigma = _random_cycles(rng, CONJUGATE_CYCLES, CONJUGATE_DEGREE)
    sigma_sizes = CONJUGATE_CYCLES + (1,) * (CONJUGATE_DEGREE - sum(CONJUGATE_CYCLES))
    scan_group = _random_cycles(rng, SCAN_CYCLES, SCAN_DEGREE)
    return [
        Step(_command("witness", "--word", word, "--n", str(trace), "--abelian",
                      "x".join(f"Z{m}" for m in ABELIAN_MODULI)),
             check_witness(directive, trace, ABELIAN_MODULI)),
        Step(_command("conjugate-witness", "--word", word, "--n", str(CONJUGATE_DEGREE),
                      "--sigma", _cycle_notation(sigma)),
             check_witness(directive, CONJUGATE_DEGREE, sigma_sizes)),
        Step(_command("scan-conjugates", "--word", word, "--n", str(SCAN_DEGREE),
                      "--group", _cycle_notation(scan_group)),
             check_scan(SCAN_DEGREE, scan_group)),
    ]


def ladder(rng: random.Random) -> list[Step]:
    directives = [_ladder_directive(rng, m) for m in LADDER_M]
    steps = [Step(_command("fine-wilf", "--word", _word_spec(d), "--m", str(m)),
                  check_fine_wilf(d, m))
             for d, m in zip(directives, LADDER_M)]
    n = LADDER_MODULUS + 1
    steps.append(Step(_command("witness", "--word", _word_spec(directives[0]),
                               "--n", str(n), "--abelian", f"Z{LADDER_MODULUS}"),
                      check_witness(directives[0], n, (LADDER_MODULUS, 1))))
    return steps


def factors(rng: random.Random) -> list[Step]:
    x, y = rng.sample("0123456789", 2)
    u, v = rng.sample("0123456789", 2)
    thue_morse = f"subst:{x}={x}{y},{y}={y}{x};seed={x}"
    slow = f"subst:{u}={u}{v * SLOW_GROWTH},{v}={v};seed={u}"
    tm_factors = lambda: thue_morse_factors(x + y, FACTORS_N)
    return [
        Step(("factors", "--word", thue_morse, "--n", str(FACTORS_N)),
             check_factors(tm_factors, FACTORS_N, "text")),
        Step(_command("factors", "--word", thue_morse, "--n", str(FACTORS_N)),
             check_factors(tm_factors, FACTORS_N, "structured")),
        Step(_command("factors", "--word", slow, "--n", str(FACTORS_SLOW_N)),
             check_factors(lambda: eventually_constant_factors(u, v, FACTORS_SLOW_N),
                           FACTORS_SLOW_N, "structured")),
    ]


def self_check(rng: random.Random) -> list[Step]:
    """Small commands whose failures are known: see ``SELF_CHECK_FAILS``."""
    tm_p = {n: 2 if n % 2 else 3 for n in range(1, 7)}
    wrong = {**tm_p, 4: 4}
    argv = _command("verify-theorem1", "--word", "tm", "--groups", "sym", "--n", "1..6")
    return [
        Step(argv, check_sym_table(tm_p, sturmian=False)),
        Step(argv, check_sym_table(wrong, sturmian=False)),
        Step(("factors", "--word", "no-such-word", "--n", "3"),
             check_factors(lambda: frozenset(), 3, "text")),
    ]


#: Indices of the self-check steps that must count as failed: a wrong
#: expected value, and a command that exits 2.
SELF_CHECK_FAILS = (1, 2)

WORKLOADS = {
    "orbit-sym": orbit_sym,
    "witness": witness,
    "ladder": ladder,
    "factors": factors,
}


def plan(workload: str, seed: int) -> list[Step]:
    builder = self_check if workload == "self-check" else WORKLOADS[workload]
    return builder(random.Random(f"{workload}/{seed}"))

