"""Permutations, generated subgroups, orbits and abelian specs."""

import math
import random
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from wordorbits.perm import (AbelianSpec, GroupSizeError, PermGroup,
                             Permutation, abc_permutation, normalize_spec,
                             parse_cycles, parse_group_spec)
from wordorbits.words import parikh


@st.composite
def perm_and_word(draw, max_degree=10):
    n = draw(st.integers(1, max_degree))
    images = tuple(draw(st.permutations(range(1, n + 1))))
    word = draw(st.text(alphabet="01", min_size=n, max_size=n))
    return Permutation(images), word


@st.composite
def two_perms_and_word(draw, max_degree=10):
    n = draw(st.integers(1, max_degree))
    g = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    h = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    word = draw(st.text(alphabet="01", min_size=n, max_size=n))
    return g, h, word


# --- cycle notation -----------------------------------------------------------

def test_parse_cycles():
    assert parse_cycles("(1,2,3,4)", 4).images == (2, 3, 4, 1)
    assert parse_cycles("(1,3,2,4)", 4).images == (3, 4, 2, 1)
    assert parse_cycles("(1,2)(3,4)").images == (2, 1, 4, 3)
    assert parse_cycles("()", 3) == Permutation.identity(3)


def test_parse_cycles_errors():
    with pytest.raises(ValueError):
        parse_cycles("(1,2)(1,3)")  # repeated point
    with pytest.raises(ValueError):
        parse_cycles("(1,5)", 3)  # point beyond degree
    with pytest.raises(ValueError):
        parse_cycles("()")  # identity needs a degree
    with pytest.raises(ValueError):
        parse_cycles("1,2,3")


def test_cycle_string_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 9)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        g = Permutation(tuple(images))
        assert parse_cycles(g.cycle_string(), n) == g


# --- composition, inverse, order -----------------------------------------------

def test_compose_inverse_order():
    swap = parse_cycles("(1,2)", 2)
    assert swap * swap == Permutation.identity(2)
    assert parse_cycles("(1,2,3)").inverse() == parse_cycles("(1,3,2)")
    assert parse_cycles("(1,2,3)(4,5,6)").order() == 3
    assert Permutation.identity(5).order() == 1


def test_degree_mismatch():
    with pytest.raises(ValueError):
        parse_cycles("(1,2)", 2) * parse_cycles("(1,2)", 3)


def test_to_cycles_sorted_by_least_element():
    g = parse_cycles("(4,5)(1,3,2)", 6)
    assert g.cycles() == ((1, 3, 2), (4, 5))
    assert g.cycles(include_fixed=True) == ((1, 3, 2), (4, 5), (6,))
    assert g.cycle_type() == (3, 2, 1)


# --- the word action ------------------------------------------------------------

def test_act_examples():
    assert Permutation.identity(4).act("0110") == "0110"
    assert parse_cycles("(1,2,3)").act("abc") == "cab"
    assert parse_cycles("(1,3,2,4)").act("0101") == "1001"


def test_act_length_mismatch():
    with pytest.raises(ValueError):
        parse_cycles("(1,2)").act("010")


@given(perm_and_word())
def test_act_preserves_parikh(data):
    g, word = data
    assert parikh(g.act(word)) == parikh(word)


@given(two_perms_and_word())
def test_act_composition_law(data):
    g, h, word = data
    assert g.act(h.act(word)) == (g * h).act(word)
    assert Permutation.identity(len(word)).act(word) == word
    assert g.act(g.inverse().act(word)) == word


# --- groups and orbits ------------------------------------------------------------

def test_closure_small_groups():
    s3 = PermGroup((parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)")))
    assert s3.order == 6
    klein1 = PermGroup((parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4)))
    assert set(klein1.elements()) == {
        Permutation.identity(4), parse_cycles("(1,2)", 4),
        parse_cycles("(3,4)", 4), parse_cycles("(1,2)(3,4)")}
    assert PermGroup.trivial(5).order == 1


def test_closure_cap(monkeypatch):
    monkeypatch.setattr(PermGroup, "DEFAULT_CAP", 100)
    big = PermGroup.symmetric(8)
    with pytest.raises(GroupSizeError):
        big.elements()


def test_single_generator_order_matches_element_order():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 8)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        g = Permutation(tuple(images))
        assert PermGroup((g,)).order == g.order()


def test_closure_order_divides_factorial():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 6)
        gens = []
        for _ in range(rng.randint(1, 2)):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        assert math.factorial(n) % PermGroup(gens).order == 0


def test_point_orbits_examples():
    assert PermGroup.trivial(5).epsilon == 5
    assert PermGroup.trivial(5).point_orbits().blocks == (
        (1,), (2,), (3,), (4,), (5,))
    klein1 = PermGroup((parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4)))
    assert klein1.point_orbits().blocks == ((1, 2), (3, 4))
    assert klein1.epsilon == 2
    klein2 = PermGroup((parse_cycles("(1,2)(3,4)"), parse_cycles("(1,3)(2,4)")))
    assert klein2.epsilon == 1


def test_epsilon_is_conjugacy_invariant():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        group = PermGroup(gens)
        conj_images = list(range(1, n + 1))
        rng.shuffle(conj_images)
        sigma = Permutation(tuple(conj_images))
        assert group.conjugate(sigma).epsilon == group.epsilon


def test_conjugate_examples():
    g = PermGroup((parse_cycles("(1,2,3,4)"),))
    assert g.conjugate(Permutation.identity(4)) == g
    conj = g.conjugate(parse_cycles("(2,3)", 4))
    assert conj.generators == (parse_cycles("(1,3,2,4)"),)


def test_is_abelian():
    assert PermGroup((parse_cycles("(1,2,3,4)"),)).is_abelian()
    assert not PermGroup((parse_cycles("(1,2)", 3),
                          parse_cycles("(1,2,3)"))).is_abelian()
    assert PermGroup.trivial(4).is_abelian()


# --- abc permutations ----------------------------------------------------------

def test_abc_examples():
    assert abc_permutation(1, 1, 2) == parse_cycles("(1,3,2,4)")
    assert abc_permutation(5, 0, 3) == parse_cycles("(1,6,3,8,5,2,7,4)")
    assert abc_permutation(4, 0, 0) == Permutation.identity(4)
    with pytest.raises(ValueError):
        abc_permutation(0, 0, 0)
    with pytest.raises(ValueError):
        abc_permutation(-1, 2, 2)


def test_abc_full_cycle_iff_coprime_sums():
    # exhaustive over all degenerate and non-degenerate shapes up to degree 12
    for total in range(1, 13):
        for a in range(total + 1):
            for b in range(total - a + 1):
                c = total - a - b
                sigma = abc_permutation(a, b, c)
                assert sigma.is_cycle() == (math.gcd(a + b, b + c) == 1)


def test_is_n_cycle():
    assert parse_cycles("(1,2,3,4)").is_cycle()
    assert not parse_cycles("(1,2)(3,4)").is_cycle()
    assert Permutation.identity(1).is_cycle()
    assert not Permutation.identity(2).is_cycle()


# --- abelian specs ---------------------------------------------------------------

def test_normalize_spec():
    assert normalize_spec([2, 2]).moduli == (2, 2)
    assert normalize_spec([2, 2]).trace == 4
    assert normalize_spec([6]).moduli == (2, 3)
    assert normalize_spec([6]).trace == 5
    assert normalize_spec([1]).moduli == (1,)
    assert normalize_spec([12, 1, 9]).moduli == (3, 4, 1, 9)
    with pytest.raises(ValueError):
        normalize_spec([0])
    with pytest.raises(ValueError):
        AbelianSpec((6,))


def test_spec_parse():
    assert AbelianSpec.parse("Z2xZ4xZ3").moduli == (2, 4, 3)
    assert AbelianSpec.parse("[2,4,3]").moduli == (2, 4, 3)
    assert AbelianSpec.parse("Z6").moduli == (2, 3)
    with pytest.raises(ValueError):
        AbelianSpec.parse("2x4")


def test_spec_isomorphism_ignores_trivial_factors():
    assert normalize_spec([4, 2]).isomorphic_to(normalize_spec([2, 1, 4]))
    assert not normalize_spec([4]).isomorphic_to(normalize_spec([2, 2]))


def test_trace_bound_witnessed_by_embedding():
    # every spec with trace T embeds into S_T as disjoint rotation cycles
    specs = [[2], [3], [2, 2], [4, 3], [1, 2, 5], [8], [2, 3, 5], [9, 1]]
    for moduli in specs:
        spec = normalize_spec(moduli)
        group = spec.embed()
        assert group.degree == spec.trace
        assert group.epsilon == len(spec.moduli)
        assert group.order == math.prod(spec.moduli)
        assert group.is_abelian()


def test_padded_spec():
    spec = normalize_spec([2])
    assert spec.padded(4).moduli == (2, 1, 1)
    with pytest.raises(ValueError):
        spec.padded(1)


# --- the group-spec grammar -------------------------------------------------------

def test_parse_group_spec():
    assert parse_group_spec("id", 4) == PermGroup.trivial(4)
    assert parse_group_spec("cyc", 4) == PermGroup((parse_cycles("(1,2,3,4)"),))
    assert parse_group_spec("sym", 3).order == 6
    two_gens = parse_group_spec("(1,2);(3,4)", 4)
    assert two_gens.generators == (parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4))
    assert parse_group_spec("abc:1,1,2", 4).generators == (parse_cycles("(1,3,2,4)"),)
    with pytest.raises(ValueError):
        parse_group_spec("abc:1,1,2", 5)
    with pytest.raises(ValueError):
        parse_group_spec("wat", 4)


def test_symmetric_generators_span_everything():
    assert PermGroup.symmetric(4).order == 24
    assert set(PermGroup.symmetric(4).elements()) == {
        Permutation(images) for images in permutations(range(1, 5))}
