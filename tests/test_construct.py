"""Interval-exchange cycles, christoffel arrays and witness constructions."""

import math
import random

import pytest

from wordorbits import construct
from wordorbits.complexity import orbit_classes
from wordorbits.construct import (_least_in_coset, build_conjugate_witness,
                                  build_isomorphic_witness, christoffel_array,
                                  conjugacy_scan, fine_wilf_data,
                                  modular_inverse, sturmian_cycle)
from wordorbits.perm import (PermGroup, Permutation, closure, normalize_spec,
                             parse_cycles)
from wordorbits.words import (InternalCheckError, SturmianWord, bispecial_ladder,
                              factors, fibonacci)

from helpers import closure_classes

FIB = fibonacci()
DIRECTIVES = (FIB, SturmianWord((2, 1)), SturmianWord((1, 2, 3)))


# --- modular inverses -------------------------------------------------------------

def test_modular_inverse():
    assert modular_inverse(3, 8) == 3
    assert modular_inverse(5, 8) == 5
    with pytest.raises(ValueError):
        modular_inverse(2, 4)
    with pytest.raises(ValueError):
        modular_inverse(3, 1)


# --- fine-wilf data ----------------------------------------------------------------

def test_fine_wilf_fibonacci_examples():
    d4 = fine_wilf_data(FIB, 4)
    assert (d4.w, d4.w_prev) == ("010", "0")
    assert (d4.r, d4.s, d4.p, d4.q) == (2, 3, 3, 2)
    assert (d4.a, d4.b, d4.c) == (1, 1, 2)

    d8 = fine_wilf_data(FIB, 8)
    assert (d8.w, d8.w_prev) == ("010010", "010")
    assert (d8.r, d8.s, d8.p, d8.q) == (3, 5, 3, 5)
    assert (d8.a, d8.b, d8.c) == (5, 0, 3)

    d6 = fine_wilf_data(FIB, 6)
    assert d6.w == "010010"
    assert (d6.a, d6.b, d6.c) == (3, 2, 1)


def test_fine_wilf_preconditions():
    with pytest.raises(ValueError):
        fine_wilf_data(FIB, 3)


def has_period(word, p):
    return all(word[i] == word[i + p] for i in range(len(word) - p))


def test_periods_of_central_words():
    # p and q really are coprime periods of w summing to |w| + 2
    for source in DIRECTIVES:
        for w in bispecial_ladder(source, 40):
            if len(w) < 2:
                continue
            d = fine_wilf_data(source, len(w) + 2)
            assert d.w == w
            assert d.p + d.q == len(w) + 2
            assert math.gcd(d.p, d.q) == 1
            assert has_period(w, d.p)
            assert has_period(w, d.q)


# --- sturmian cycles ------------------------------------------------------------------

def test_sturmian_cycle_base_cases():
    assert sturmian_cycle(FIB, 1) == Permutation.identity(1)
    assert sturmian_cycle(FIB, 2) == parse_cycles("(1,2)")
    assert sturmian_cycle(FIB, 3) == parse_cycles("(1,2,3)")


def test_sturmian_cycle_fibonacci_values():
    assert sturmian_cycle(FIB, 4) == parse_cycles("(1,3,2,4)")
    assert sturmian_cycle(FIB, 8) == parse_cycles("(1,6,3,8,5,2,7,4)")


def test_cycle_rearranges_three_intervals():
    # acting on u = C + B + A yields A + B + C
    for source in DIRECTIVES:
        for m in range(4, 21):
            d = fine_wilf_data(source, m)
            sigma = sturmian_cycle(source, m)
            for u in factors(source, m):
                head, mid, tail = u[:d.c], u[d.c:d.c + d.b], u[d.c + d.b:]
                assert sigma.act(u) == tail + mid + head


def test_cycle_abelian_transitive_up_to_40():
    for source in DIRECTIVES:
        for m in range(1, 41):
            sigma = sturmian_cycle(source, m)
            assert sigma.is_cycle()
            fs = factors(source, m)
            part = orbit_classes(fs, PermGroup((sigma,)))
            assert part.blocks == fs.parikh_classes()


# --- christoffel arrays -----------------------------------------------------------------

FIG_MATRIX = (
    "00100101", "00101001", "01001001", "01001010",
    "01010010", "10010010", "10010100", "10100100",
)


def test_christoffel_example_matrix():
    arr = christoffel_array("010010")
    assert (arr.r, arr.s) == (3, 5)
    assert arr.rows == FIG_MATRIX
    assert arr.rows[0] == "00100101"
    assert arr.rows[-1] == "10100100"


def test_christoffel_empty_central_word():
    assert christoffel_array("").rows == ("01", "10")


def test_christoffel_rejects_non_primitive():
    with pytest.raises(ValueError):
        christoffel_array("10")  # 0101 = (01)^2
    with pytest.raises(ValueError):
        christoffel_array("0a0")


def random_central_words(count, max_size, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        directive = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        source = SturmianWord(directive)
        ladder = [w for w in bispecial_ladder(source, max_size - 2)
                  if 2 <= len(w) <= max_size - 2]
        if ladder:
            out.append(rng.choice(ladder))
    return out


def test_adjacent_rows_differ_by_01_to_10():
    for w in random_central_words(20, 30, seed=41):
        arr = christoffel_array(w)
        for top, bottom in zip(arr.rows, arr.rows[1:]):
            diff = [i for i in range(len(top)) if top[i] != bottom[i]]
            assert len(diff) == 2
            i, j = diff
            assert j == i + 1
            assert top[i:j + 1] == "01" and bottom[i:j + 1] == "10"


def test_rows_shift_cyclically_by_q():
    for w in random_central_words(20, 30, seed=43):
        arr = christoffel_array(w)
        q = arr.shift
        for top, bottom in zip(arr.rows, arr.rows[1:]):
            assert bottom == top[-q:] + top[:-q]


# --- witness constructions -----------------------------------------------------------------

def test_isomorphic_witness_single_cycle():
    report = build_isomorphic_witness(FIB, 4, normalize_spec([4]))
    assert report.group.generators == (parse_cycles("(1,3,2,4)"),)
    assert report.epsilon == 1
    assert report.class_count == 2
    assert report.passed
    assert report.classes == (("0010", "0100"), ("0101", "1001", "1010"))


def test_isomorphic_witness_with_padding():
    report = build_isomorphic_witness(FIB, 4, normalize_spec([2]))
    assert report.padded_sizes == (2, 1, 1)
    assert report.partition.blocks == ((1, 2), (3,), (4,))
    assert report.epsilon == 3
    assert report.class_count == 4
    assert report.classes == (
        ("0010",), ("0100",), ("0101", "1001"), ("1010",))
    assert report.cycle_strings() == ("(1,2)", "(3)", "(4)")


def test_isomorphic_witness_trace_guard():
    with pytest.raises(ValueError):
        build_isomorphic_witness(FIB, 3, normalize_spec([2, 2]))


def test_witness_cycles_have_disjoint_supports():
    report = build_isomorphic_witness(FIB, 10, normalize_spec([4, 3, 2]))
    supports = []
    for cyc in report.cycles:
        moved = {i for i in range(1, 11) if cyc(i) != i}
        supports.append(moved)
    for i, a in enumerate(supports):
        for b in supports[i + 1:]:
            assert not (a & b)
    gens = report.group.generators
    assert all(g * h == h * g for g in gens for h in gens)


def test_witness_class_count_against_closure_oracle():
    rng = random.Random(47)
    specs = [[2], [3], [2, 2], [4], [5, 2], [3, 3], [8], [4, 3, 2]]
    for moduli in specs:
        spec = normalize_spec(moduli)
        n = rng.randint(spec.trace, 12)
        for source in (FIB, SturmianWord((2, 1))):
            report = build_isomorphic_witness(source, n, spec)
            assert report.passed
            fs = factors(source, n)
            assert closure_classes(fs, report.group) == report.classes


def test_conjugate_witness_examples():
    report = build_conjugate_witness(FIB, parse_cycles("(1,2,3,4,5)", 7))
    assert report.padded_sizes == (5, 1, 1)
    assert report.epsilon == 3
    assert report.class_count == 4
    assert report.passed

    ident = build_conjugate_witness(FIB, Permutation.identity(5))
    assert ident.class_count == 6
    assert ident.epsilon == 5
    assert ident.passed

    with pytest.raises(ValueError):
        build_conjugate_witness(FIB, parse_cycles("(1,2,3)(4,5,6)"))


def test_conjugate_witness_preserves_cycle_type():
    sigma = parse_cycles("(2,7)(1,4,6)", 8)
    report = build_conjugate_witness(FIB, sigma)
    assert sorted(report.padded_sizes) == sorted(sigma.cycle_type())
    built_type = sorted(
        len(block) for block in report.partition.blocks)
    assert built_type == sorted(sigma.cycle_type())
    assert report.passed


# --- conjugacy scans -------------------------------------------------------------------------

def test_scan_trivial_group():
    scan = conjugacy_scan(FIB, PermGroup.trivial(5))
    assert scan.min_classes == scan.max_classes == len(factors(FIB, 5))
    assert len(scan.rows) == 1


def test_scan_symmetric_group():
    scan = conjugacy_scan(FIB, PermGroup.symmetric(6))
    assert len(scan.rows) == 1
    assert scan.min_classes == 2


def test_scan_counterexample_group():
    group = PermGroup((parse_cycles("(1,2,3)(4,5,6)"),))
    scan = conjugacy_scan(FIB, group)
    assert scan.min_classes >= 4
    # measured once, frozen as a regression value
    assert scan.min_classes == 4
    assert scan.max_classes == 7
    assert len(scan.rows) == 20


def test_keyed_scan_never_partitions_a_conjugate(monkeypatch):
    # G is keyed once and each conjugate is counted on relabeled factors
    def refuse(fs, group):
        raise AssertionError(f"orbit_classes reached for {group}")
    monkeypatch.setattr(construct, "orbit_classes", refuse)
    scan = conjugacy_scan(FIB, PermGroup((parse_cycles("(1,2,3)(4,5,6)", 7),)))
    assert len(scan.rows) == 140


def test_scan_keeps_the_parikh_span_check(monkeypatch):
    # a key that merges every word puts all of Fact(n) in one class
    monkeypatch.setattr(construct, "_canonical_key", lambda group: lambda w: ())
    with pytest.raises(InternalCheckError, match="Parikh"):
        conjugacy_scan(FIB, PermGroup((parse_cycles("(1,2,3)(4,5,6)", 7),)))


def test_least_conjugator_by_filtering_the_normalizer():
    # _least_in_coset against min over the enumerated coset sigma N, on
    # random subgroups N given as bytes of 0-based images
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(1, 7)
        gens = []
        for _ in range(rng.randint(0, 2)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(bytes(images))
        group = closure(gens, n)
        sigma = list(range(n))
        rng.shuffle(sigma)
        sigma = bytes(sigma)
        coset = [bytes(map(sigma.__getitem__, nu)) for nu in group]
        assert _least_in_coset(sigma, group) == min(coset)


def test_scan_degree_guard():
    with pytest.raises(ValueError):
        conjugacy_scan(FIB, PermGroup.trivial(9))


# --- serialization ----------------------------------------------------------------------------

def test_structured_payloads():
    arr = christoffel_array("010010")
    data = arr.to_structured()
    assert data["rows"] == list(FIG_MATRIX)
    report = build_isomorphic_witness(FIB, 4, normalize_spec([2]))
    payload = report.to_structured()
    assert payload["padded_sizes"] == [2, 1, 1]
    assert payload["cycles"] == ["(1,2)", "(3)", "(4)"]
    assert payload["passed"] is True
    d = fine_wilf_data(FIB, 8)
    assert d.to_structured()["a"] == 5
