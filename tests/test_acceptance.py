"""Acceptance suite: one test per criterion, timed, with a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``; a summary block listing every
criterion is printed at the end of the session (see conftest).
"""

import math
import random
import time

from wordorbits.cli import main as cli_main
from wordorbits.complexity import orbit_classes, p_value, verify_complexity_bound
from wordorbits.construct import (build_conjugate_witness,
                                  build_isomorphic_witness, christoffel_array,
                                  conjugacy_scan, sturmian_cycle)
from wordorbits.perm import (PermGroup, Permutation, abc_permutation,
                             normalize_spec, parse_cycles)
from wordorbits.words import (SturmianWord, bispecial_ladder, factors,
                              fibonacci, thue_morse)

ACCEPTANCE_LINES = []

FIB = fibonacci()
TM = thue_morse()


def _record(num, ok, elapsed, budget, detail):
    line = (f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} "
            f"[{elapsed:6.2f}s / {budget:.0f}s] {detail}")
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line
    assert elapsed < budget, line


def random_permutation(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def closure_classes(fs, group):
    """Independent oracle: apply every element of the full closure."""
    elements = group.elements()
    seen = set()
    blocks = []
    for u in fs.members:
        if u in seen:
            continue
        cls = tuple(sorted({g.act(u) for g in elements} & fs.member_set))
        blocks.append(cls)
        seen.update(cls)
    return tuple(blocks)


def test_criterion_1_worked_example_exact():
    started = time.perf_counter()
    fs = factors(FIB, 4)
    ok = fs.members == ("0010", "0100", "0101", "1001", "1010")
    part1 = orbit_classes(fs, PermGroup((parse_cycles("(1,2,3,4)"),)))
    ok &= part1.blocks == (("0010", "0100"), ("0101", "1010"), ("1001",))
    ok &= part1.blocks != fs.parikh_classes()
    part2 = orbit_classes(fs, PermGroup((parse_cycles("(1,3,2,4)"),)))
    ok &= part2.blocks == (("0010", "0100"), ("0101", "1001", "1010"))
    ok &= part2.blocks == fs.parikh_classes()
    _record(1, ok, time.perf_counter() - started, 1,
            "factor set and both orbit partitions reproduced exactly")


def test_criterion_2_epsilon_embeddings_and_conjugacy_invariance():
    started = time.perf_counter()
    klein1 = PermGroup((parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4)))
    klein2 = PermGroup((parse_cycles("(1,2)(3,4)"), parse_cycles("(1,3)(2,4)")))
    ok = klein1.epsilon == 2 and klein2.epsilon == 1
    rng = random.Random(0x5EED)
    checked = 0
    for _ in range(50):
        n = rng.randint(2, 8)
        gens = [random_permutation(rng, n) for _ in range(rng.randint(1, 3))]
        group = PermGroup(gens)
        eps = group.epsilon
        for _ in range(4):
            sigma = random_permutation(rng, n)
            ok &= group.conjugate(sigma).epsilon == eps
            checked += 1
    _record(2, ok and checked == 200, time.perf_counter() - started, 10,
            "epsilon values 2 and 1; invariant under 200 conjugations")


def test_criterion_3_lower_bound_over_random_group_sequences():
    started = time.perf_counter()
    rng = random.Random(0xB0D1)
    words = (FIB, TM, SturmianWord((2, 1)), SturmianWord((1, 2, 3)))
    ok = True
    for source in words:
        for _ in range(100):
            groups = {}
            for n in range(1, 11):
                gens = [random_permutation(rng, n)
                        for _ in range(rng.randint(1, 2))]
                groups[n] = PermGroup(gens)
            table = verify_complexity_bound(source, groups, range(1, 11))
            ok &= table.verdict == "pass"
            ok &= all(row.slack >= 0 for row in table.rows)
    _record(3, ok, time.perf_counter() - started, 120,
            "slack >= 0 on 4 words x 100 random group sequences, n <= 10")


def test_criterion_4_trivial_and_symmetric_sequence_recoveries():
    started = time.perf_counter()
    ok = all(p_value(FIB, PermGroup.trivial(n)) == n + 1 for n in range(1, 31))
    tm4 = p_value(TM, PermGroup.trivial(4))
    ok &= tm4 == 10 and tm4 > 5
    for source in (FIB, SturmianWord((2, 1))):
        ok &= all(p_value(source, PermGroup.symmetric(n)) == 2
                  for n in range(1, 13))
    ok &= all(p_value(TM, PermGroup.symmetric(n)) >= 2 for n in range(1, 13))
    _record(4, ok, time.perf_counter() - started, 30,
            "trivial and symmetric sequences give the classical counts")


def test_criterion_5_interval_exchange_cycles():
    started = time.perf_counter()
    ok = sturmian_cycle(FIB, 4) == parse_cycles("(1,3,2,4)")
    ok &= sturmian_cycle(FIB, 8) == parse_cycles("(1,6,3,8,5,2,7,4)")
    for source in (FIB, SturmianWord((2, 1)), SturmianWord((1, 2, 3))):
        for m in range(1, 41):
            sigma = sturmian_cycle(source, m)
            ok &= sigma.is_cycle()
            fs = factors(source, m)
            brute = closure_classes(fs, PermGroup((sigma,)))
            ok &= brute == fs.parikh_classes()
            ok &= orbit_classes(fs, PermGroup((sigma,))).blocks == brute
    _record(5, ok, time.perf_counter() - started, 120,
            "m-cycles abelian-transitive for m <= 40 on three directives")


def is_prime_power(m):
    for p in range(2, m + 1):
        if m % p == 0:
            while m % p == 0:
                m //= p
            return m == 1
    return False


def prime_power_multisets(limit):
    parts = [m for m in range(2, limit + 1) if is_prime_power(m)]
    out = []

    def rec(start, remaining, acc):
        out.append(tuple(acc))
        for part in parts:
            if part < start or part > remaining:
                continue
            rec(part, remaining - part, acc + [part])
    rec(2, limit, [])
    return out


def test_criterion_6_abelian_witnesses_exhaustive():
    started = time.perf_counter()
    ok = True
    count = 0
    specs = prime_power_multisets(12)
    for n in range(1, 13):
        for moduli in specs:
            if sum(moduli) > n:
                continue
            spec = normalize_spec(moduli)
            for source in (FIB, SturmianWord((2, 1))):
                report = build_isomorphic_witness(source, n, spec)
                ok &= report.passed
                ok &= report.class_count == report.epsilon + 1
                fs = factors(source, n)
                ok &= closure_classes(fs, report.group) == report.classes
                count += 1
    _record(6, ok, time.perf_counter() - started, 300,
            f"{count} witnesses pass with closure-verified class counts")


FIG_RENDERING = "\n".join((
    "0 0 1 0 0 1 0 1",
    "0 0 1 0 1 0 0 1",
    "0 1 0 0 1 0 0 1",
    "0 1 0 0 1 0 1 0",
    "0 1 0 1 0 0 1 0",
    "1 0 0 1 0 0 1 0",
    "1 0 0 1 0 1 0 0",
    "1 0 1 0 0 1 0 0",
))


def test_criterion_7_christoffel_arrays(capsys):
    started = time.perf_counter()
    code = cli_main(["christoffel", "010010"])
    out = capsys.readouterr().out
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    ok = code == 0 and body == FIG_RENDERING

    rng = random.Random(0xC4A0)
    words = []
    while len(words) < 20:
        directive = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        ladder = [w for w in bispecial_ladder(SturmianWord(directive), 28)
                  if 2 <= len(w) <= 28]
        if ladder:
            words.append(rng.choice(ladder))
    for w in words:
        arr = christoffel_array(w)
        ok &= arr.size <= 30
        q = arr.shift
        for top, bottom in zip(arr.rows, arr.rows[1:]):
            diff = [i for i in range(len(top)) if top[i] != bottom[i]]
            ok &= (len(diff) == 2 and diff[1] == diff[0] + 1
                   and top[diff[0]:diff[1] + 1] == "01"
                   and bottom[diff[0]:diff[1] + 1] == "10")
            ok &= bottom == top[-q:] + top[:-q]
    _record(7, ok, time.perf_counter() - started, 30,
            "rendering byte-identical; adjacency and shift laws on 20 arrays")


def test_criterion_8_counterexample_scan():
    started = time.perf_counter()
    scan = conjugacy_scan(FIB, PermGroup((parse_cycles("(1,2,3)(4,5,6)"),)))
    ok = scan.min_classes >= 4
    ok &= scan.min_classes == 4  # measured once, frozen as regression value
    classes = factors(FIB, 6).parikh_classes()
    ok &= classes == (
        ("001001", "001010", "010010", "010100", "100100"),
        ("100101", "101001"))
    _record(8, ok, time.perf_counter() - started, 60,
            f"minimum over {len(scan.rows)} conjugates is 4; "
            "abelian classes split 5 + 2 as expected")


def test_criterion_9_conjugate_cycle_types():
    started = time.perf_counter()
    rng = random.Random(0x90CD)
    ok = True
    built = 0
    while built < 30:
        n = rng.randint(2, 12)
        parts = []
        remaining = n
        while remaining:
            part = rng.randint(1, remaining)
            parts.append(part)
            remaining -= part
        if math.gcd(*parts) != 1:
            continue
        # realize the cycle type on randomly scattered points
        points = list(range(1, n + 1))
        rng.shuffle(points)
        images = list(range(1, n + 1))
        pos = 0
        for part in parts:
            cycle = points[pos:pos + part]
            for i, p in enumerate(cycle):
                images[p - 1] = cycle[(i + 1) % part]
            pos += part
        sigma = Permutation(tuple(images))
        report = build_conjugate_witness(FIB, sigma)
        ok &= report.passed
        ok &= report.class_count == PermGroup((sigma,)).epsilon + 1
        ok &= sorted(report.padded_sizes) == sorted(sigma.cycle_type())
        built += 1
    _record(9, ok, time.perf_counter() - started, 120,
            "30 random gcd-1 cycle types rebuilt, all meeting the bound")


def test_criterion_10_abc_cycle_criterion_exhaustive():
    started = time.perf_counter()
    ok = True
    checked = 0
    for total in range(1, 13):
        for a in range(total + 1):
            for b in range(total - a + 1):
                c = total - a - b
                sigma = abc_permutation(a, b, c)
                ok &= sigma.is_cycle() == (math.gcd(a + b, b + c) == 1)
                checked += 1
    _record(10, ok, time.perf_counter() - started, 5,
            f"all {checked} interval-exchange shapes up to degree 12")
