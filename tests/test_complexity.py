"""Orbit classes, block-abelian relations and the bound harness."""

import json
import random

import pytest

from wordorbits import complexity
from wordorbits.cli import main
from wordorbits.complexity import (BlockPartition, _canonical_key,
                                   _least_rotation, _orbit_search,
                                   complexity_table, is_abelian_transitive,
                                   orbit_classes, verify_complexity_bound)
from wordorbits.construct import build_isomorphic_witness, conjugacy_scan
from wordorbits.perm import (AbelianSpec, GroupSizeError, PermGroup,
                             Permutation, abc_permutation, normalize_spec,
                             parse_cycles, parse_group_spec)
from wordorbits.words import (ExplicitWord, FactorSet, PeriodicWord,
                              SturmianWord, factors, fibonacci, thue_morse)

from helpers import block_classes, closure_classes, conjugate_group, p_value

FIB = fibonacci()
TM = thue_morse()
G1 = PermGroup((parse_cycles("(1,2,3,4)"),))
G2 = PermGroup((parse_cycles("(1,3,2,4)"),))


def random_permutation(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def random_group(rng, n, max_gens=2):
    return PermGroup([random_permutation(rng, n)
                      for _ in range(rng.randint(1, max_gens))])


# --- orbit classes ----------------------------------------------------------------

def test_fibonacci_orbit_classes():
    fs = factors(FIB, 4)
    assert orbit_classes(fs, G1).blocks == (
        ("0010", "0100"), ("0101", "1010"), ("1001",))
    assert orbit_classes(fs, G2).blocks == (
        ("0010", "0100"), ("0101", "1001", "1010"))


def test_trivial_group_gives_singletons():
    fs = factors(FIB, 4)
    part = orbit_classes(fs, PermGroup.trivial(4))
    assert part.blocks == tuple((w,) for w in fs.members)


def test_degree_mismatch():
    with pytest.raises(ValueError):
        orbit_classes(factors(FIB, 3), G1)


def test_orbit_classes_refine_parikh_classes():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 8)
        fs = factors(rng.choice((FIB, TM)), n)
        part = orbit_classes(fs, random_group(rng, n))
        for cls in part.blocks:
            parikh_cls = next(p for p in fs.parikh_classes() if cls[0] in p)
            assert set(cls) <= set(parikh_cls)


def test_orbit_classes_match_full_closure_oracle():
    # generator BFS must agree with applying every element of the closure
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(2, 7)
        fs = factors(rng.choice((FIB, TM)), n)
        group = random_group(rng, n)
        part = orbit_classes(fs, group)
        assert set(part.blocks) == set(closure_classes(fs, group))


def test_orbit_search_cap_is_a_typed_error(monkeypatch, capsys):
    # (1,3) and the 10-cycle do not generate S_10, so this group takes the
    # orbit search; its orbits on length-10 factors exceed 100 words
    spec = "(1,3);(1,2,3,4,5,6,7,8,9,10)"
    monkeypatch.setattr(PermGroup, "DEFAULT_CAP", 100)
    with pytest.raises(GroupSizeError):
        orbit_classes(factors(TM, 10), parse_group_spec(spec, 10))
    assert main(["verify-theorem1", "--word", "tm", "--groups", spec,
                 "--n", "10"]) == 2
    assert "exceeds cap 100" in capsys.readouterr().err


def test_symmetric_classes_beyond_the_search_cap():
    # one sym orbit here holds C(200, 100) words; the Parikh key never walks it
    assert orbit_classes(factors(TM, 200), PermGroup.symmetric(200)).class_count == 3


def trap_group(n):
    # (1,3) is not adjacent along the n-cycle; for even n the group keeps
    # the odd and the even positions apart, so it is not S_n
    return PermGroup((parse_cycles("(1,3)", n), PermGroup.cyclic(n).generators[0]))


def random_block_group(rng, n):
    # random blocks, some fixed points; each block carries either one
    # cycle or a cycle plus a transposition adjacent along it
    points = list(range(1, n + 1))
    rng.shuffle(points)
    gens = []
    while points:
        size = rng.randint(1, 4)
        block, points = points[:size], points[size:]
        if len(block) == 1:
            continue
        gens.append(parse_cycles("(" + ",".join(map(str, block)) + ")", n))
        if rng.random() < 0.5:
            gens.append(parse_cycles(f"({block[0]},{block[1]})", n))
    rng.shuffle(gens)
    return PermGroup(gens, n)


def keyed_groups(rng):
    for n in range(1, 10):
        yield PermGroup.symmetric(n)
        yield conjugate_group(PermGroup.symmetric(n), random_permutation(rng, n))
        yield PermGroup.cyclic(n)
        yield random_block_group(rng, n)
    for n in range(2, 10):
        yield parse_group_spec("(1,2);(" + ",".join(map(str, range(1, n + 1))) + ")", n)
    for spec in ("[2,3,4]", "[5,1,3]", "[7]", "[1,1]", "[2,2,2,1]"):
        yield AbelianSpec.parse(spec).embed()


def test_canonical_keys_match_the_orbit_search():
    rng = random.Random(41)
    for group in keyed_groups(rng):
        assert _canonical_key(group) is not None, group
        for source in (FIB, TM):
            fs = factors(source, group.degree)
            assert orbit_classes(fs, group).blocks == _orbit_search(fs, group)


def test_groups_without_a_key_take_the_orbit_search():
    # <(1,2,3)(4,5,6)> and the dihedral trap_group(4) fit neither the
    # symmetric nor the one-cycle rule but are small enough to enumerate;
    # trap_group(8) has 2 * 24**2 elements and still takes the search
    two_cycles = PermGroup((parse_cycles("(1,2,3)(4,5,6)"),))
    assert _canonical_key(two_cycles) is not None
    for source in (FIB, TM):
        fs = factors(source, 6)
        assert orbit_classes(fs, two_cycles).blocks == _orbit_search(fs, two_cycles)
    for source, n, classes, parikh, keyed in ((FIB, 4, 3, 2, True), (TM, 8, 4, 3, False)):
        group = trap_group(n)
        assert (_canonical_key(group) is not None) == keyed
        fs = factors(source, n)
        assert len(fs.parikh_classes()) == parikh
        assert orbit_classes(fs, group).class_count == classes
        assert orbit_classes(fs, group).blocks == _orbit_search(fs, group)


def dihedral_group(k):
    rotation = PermGroup.cyclic(k).generators[0]
    reflection = Permutation(tuple([1] + list(range(k, 1, -1))))
    return PermGroup((rotation, reflection))


def small_order_groups(rng):
    # groups outside the symmetric and one-cycle rules, most of them small
    for _ in range(60):
        n = rng.randint(2, 8)
        yield PermGroup([random_permutation(rng, n)
                         for _ in range(rng.randint(1, 3))])
    for _ in range(10):
        yield conjugate_group(PermGroup((parse_cycles("(1,2,3)(4,5,6)", 7),)),
                              random_permutation(rng, 7))
    for k in range(3, 9):
        yield dihedral_group(k)
        yield conjugate_group(dihedral_group(k), random_permutation(rng, k))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                if 2 <= a + b + c <= 8 and len(abc_permutation(a, b, c).cycles()) > 1:
                    yield PermGroup((abc_permutation(a, b, c),))
    yield trap_group(4)
    yield trap_group(6)


def test_small_order_keys_match_the_orbit_search():
    rng = random.Random(53)
    keyed = 0
    # 150 disjoint transpositions: one component of 300 points, order 2
    swaps = "".join(f"({i},{i + 1})" for i in range(1, 300, 2))
    wide = PermGroup((parse_cycles(swaps, 300),))
    assert _canonical_key(wide) is not None
    for group in [*small_order_groups(rng), wide]:
        keyed += _canonical_key(group) is not None
        for source in (FIB, TM):
            fs = factors(source, group.degree)
            assert orbit_classes(fs, group).blocks == _orbit_search(fs, group), group
    assert keyed >= 80


def test_small_order_bound_is_inclusive(monkeypatch):
    # S_5 from a 5-cycle and a transposition not adjacent along it: order 120
    s5 = parse_group_spec("(1,2,3,4,5);(1,3)", 5)
    assert s5.order == complexity.SMALL_ORDER_BOUND == 120
    assert _canonical_key(s5) is not None
    # a Sylow 2-subgroup of S_8, order 128, is past the bound
    sylow = parse_group_spec("(1,2);(1,3)(2,4);(1,5)(2,6)(3,7)(4,8)", 8)
    assert sylow.order == 128
    assert _canonical_key(sylow) is None
    for group in (s5, dihedral_group(5), trap_group(4)):
        monkeypatch.setattr(complexity, "SMALL_ORDER_BOUND", group.order)
        assert _canonical_key(group) is not None
        monkeypatch.setattr(complexity, "SMALL_ORDER_BOUND", group.order - 1)
        assert _canonical_key(group) is None


def test_conjugate_classes_are_the_relabeled_classes():
    # with H = sigma G sigma^-1 and (pi w)[i] = w[pi^-1(i)], the map
    # w -> sigma^-1 w carries H's classes on Fact(n) one-to-one onto G's
    # classes of the relabeled words; conjugacy_scan counts each conjugate
    # this way, reading sigma^-1 w as w gathered by sigma's 0-based images
    rng = random.Random(67)
    groups = [random_group(rng, rng.randint(2, 7), max_gens=3) for _ in range(30)]
    groups += [dihedral_group(k) for k in range(3, 8)]
    groups += [conjugate_group(PermGroup((parse_cycles("(1,2,3)(4,5,6)", 7),)),
                               random_permutation(rng, 7)) for _ in range(5)]
    for group in groups:
        n = group.degree
        sigma = random_permutation(rng, n)
        gather = [x - 1 for x in sigma.images]
        key = _canonical_key(group)
        for source in (FIB, TM):
            fs = factors(source, n)
            relabeled = {w: sigma.inverse().act(w) for w in fs.members}
            assert all(v == "".join(w[i] for i in gather) for w, v in relabeled.items())
            words = FactorSet(n, tuple(sorted(relabeled.values())), 0, "explicit-prefix")
            conj_blocks = orbit_classes(fs, conjugate_group(group, sigma)).blocks
            images = sorted(sorted(relabeled[w] for w in cls) for cls in conj_blocks)
            assert images == sorted(map(list, orbit_classes(words, group).blocks)), group
            if key is not None:
                assert len({key(v) for v in relabeled.values()}) == len(conj_blocks)


def test_least_rotation_against_all_rotations():
    rng = random.Random(47)
    for _ in range(300):
        letters = "012"[:rng.randint(1, 3)]
        r = "".join(rng.choice(letters) for _ in range(rng.randint(1, 12)))
        assert _least_rotation(r) == min(r[i:] + r[:i] for i in range(len(r)))


def test_keyed_families_never_search(monkeypatch):
    def refuse(fs, group):
        raise AssertionError(f"orbit search reached for {group}")
    monkeypatch.setattr(complexity, "_orbit_search", refuse)
    rng = random.Random(43)
    for group in keyed_groups(rng):
        orbit_classes(factors(TM, group.degree), group)
    for sizes in ((3, 2), (5, 1, 1), (2, 3, 4, 1)):
        n = sum(sizes)
        report = build_isomorphic_witness(FIB, n, normalize_spec(sizes))
        assert report.passed
    scan = conjugacy_scan(FIB, PermGroup((parse_cycles("(1,2,3)(4,5,6)", 7),)))
    assert len(scan.rows) == 140


# --- p values -----------------------------------------------------------------------

def test_p_value_examples():
    assert p_value(FIB, G2) == 2
    assert p_value(FIB, PermGroup.trivial(4)) == 5
    assert p_value(FIB, PermGroup.symmetric(4)) == 2


def test_p_value_sanity_against_counts():
    for source in (FIB, TM):
        for n in (2, 5, 9):
            assert p_value(source, PermGroup.trivial(n)) == len(factors(source, n))
            assert p_value(source, PermGroup.symmetric(n)) == len(
                factors(source, n).parikh_classes())


# --- abelian transitivity -------------------------------------------------------------

def test_abelian_transitivity_examples():
    fs = factors(FIB, 4)
    assert is_abelian_transitive(fs, G2)
    assert not is_abelian_transitive(fs, G1)


def test_abelian_transitivity_on_low_complexity_word():
    fs = factors(ExplicitWord("0000100001000010000100001"), 4)
    assert fs.members == ("0000", "0001", "0010", "0100", "1000")
    assert is_abelian_transitive(fs, G1)
    assert is_abelian_transitive(fs, G2)


def test_abelian_transitive_counts_agree_with_built_parikh_classes():
    rng = random.Random(11)
    seen = set()
    for source in (FIB, TM, SturmianWord((1, 2, 1, 3))):
        for n in range(2, 9):
            fs = factors(source, n)
            groups = [PermGroup.trivial(n), PermGroup.symmetric(n),
                      PermGroup.cyclic(n)] + [random_group(rng, n) for _ in range(6)]
            for group in groups:
                part = orbit_classes(fs, group)
                expected = part.blocks == fs.parikh_classes()
                assert part.abelian_transitive == expected
                seen.add(expected)
    assert seen == {True, False}
    # as many classes as Parikh classes, but one class spans two of them
    fs = factors(FIB, 4)
    mixed = (("0010", "0101"), ("0100", "1001", "1010"))
    assert len(fs.parikh_classes()) == len(mixed)
    assert not complexity.OrbitPartition(fs, G1, mixed).abelian_transitive


# --- block-abelian relations ------------------------------------------------------------

def test_block_classes_examples():
    fs = factors(FIB, 4)
    part = BlockPartition(4, ((1, 2), (3,), (4,)))
    assert len(block_classes(fs, part, 1)) == 2
    assert len(block_classes(fs, part, 3)) == 4
    whole = BlockPartition(4, ((1, 2, 3, 4),))
    assert block_classes(fs, whole, 1) == fs.parikh_classes()


def test_block_partition_validation():
    with pytest.raises(ValueError):
        BlockPartition(4, ((1, 2), (2, 3, 4)))  # overlap
    with pytest.raises(ValueError):
        BlockPartition(4, ((3, 4), (1, 2)))  # wrong max order
    assert BlockPartition.intervals((2, 1, 1)).blocks == ((1, 2), (3,), (4,))
    assert BlockPartition.intervals((2, 2)).is_interval
    assert not BlockPartition(4, ((1, 3), (2, 4))).is_interval


def random_max_ordered_partition(rng, n):
    labels = [rng.randrange(3) for _ in range(n)]
    blocks = {}
    for point, lab in zip(range(1, n + 1), labels):
        blocks.setdefault(lab, []).append(point)
    ordered = sorted((tuple(b) for b in blocks.values()), key=lambda b: b[-1])
    return BlockPartition(n, tuple(ordered))


def test_block_class_count_lower_bound_for_aperiodic_sources():
    rng = random.Random(31)
    for source in (FIB, TM):
        for _ in range(30):
            n = rng.randint(2, 10)
            part = random_max_ordered_partition(rng, n)
            fs = factors(source, n)
            for j in range(1, len(part.blocks) + 1):
                assert len(block_classes(fs, part, j)) >= j + 1


def test_block_classes_monotone_in_j():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(2, 10)
        part = random_max_ordered_partition(rng, n)
        fs = factors(TM, n)
        counts = [len(block_classes(fs, part, j))
                  for j in range(1, len(part.blocks) + 1)]
        assert counts == sorted(counts)


def interval_partitions(n, max_blocks):
    # compositions of n into at most max_blocks parts
    def rec(remaining, parts):
        if remaining == 0:
            yield tuple(parts)
            return
        if len(parts) == max_blocks:
            return
        for size in range(1, remaining + 1):
            yield from rec(remaining - size, parts + [size])
    yield from rec(n, [])


def test_interval_block_classes_exact_for_sturmian():
    for source, n_max in ((FIB, 14), (SturmianWord((2, 1)), 10)):
        for n in range(2, n_max + 1):
            fs = factors(source, n)
            for sizes in interval_partitions(n, 4):
                part = BlockPartition.intervals(sizes)
                for j in range(1, len(sizes) + 1):
                    assert len(block_classes(fs, part, j)) == j + 1


# --- the bound harness ---------------------------------------------------------------------

def test_bound_table_fibonacci_trivial_groups():
    table = verify_complexity_bound(FIB, PermGroup.trivial, range(1, 21))
    assert table.verdict == "pass"
    assert table.sturmian_consistent
    assert all(row.slack == 0 for row in table.rows)
    assert [row.p for row in table.rows] == [n + 1 for n in range(1, 21)]


def test_bound_table_thue_morse():
    table = verify_complexity_bound(TM, PermGroup.trivial, [4])
    assert table.rows[0].epsilon == 4
    assert table.rows[0].p == 10
    assert table.rows[0].slack == 5
    assert table.verdict == "pass"
    assert not table.sturmian_consistent


def test_bound_table_symmetric_sequence():
    table = verify_complexity_bound(TM, PermGroup.symmetric, range(1, 13))
    assert table.verdict == "pass"
    assert all(row.p >= 2 for row in table.rows)


def test_bound_harness_refuses_unknown_aperiodicity():
    for source in (ExplicitWord("0110100110010110"), PeriodicWord("01")):
        table = verify_complexity_bound(source, PermGroup.trivial, range(1, 5))
        assert table.verdict == "inapplicable"
        assert table.rows == ()


def test_bound_harness_refuses_an_empty_range():
    # no lengths means nothing was checked; that must not read as a pass
    for source in (FIB, PeriodicWord("01")):
        with pytest.raises(ValueError):
            verify_complexity_bound(source, PermGroup.trivial, range(5, 4))


def test_complexity_table_accepts_any_source():
    rows = complexity_table(PeriodicWord("01"), PermGroup.trivial, [1, 2, 3])
    assert [row.p for row in rows] == [2, 2, 2]


def test_group_sequence_degree_check():
    with pytest.raises(ValueError):
        verify_complexity_bound(FIB, {3: PermGroup.trivial(4)}, [3])


# --- serialization ---------------------------------------------------------------------------

def test_table_serializations():
    table = verify_complexity_bound(FIB, PermGroup.cyclic, range(1, 5))
    text = table.to_text()
    assert text.splitlines()[0].split() == ["n", "group", "epsilon", "p", "slack"]
    assert "verdict: pass" in text
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "n,group,epsilon,p,slack"
    assert '"' not in csv_text
    data = table.to_structured()
    assert data["kind"] == "complexity-table"
    assert "format" not in data  # the CLI adds the format tag to every report
    assert json.dumps(data)  # JSON-serializable
    assert [row["n"] for row in data["rows"]] == [1, 2, 3, 4]
