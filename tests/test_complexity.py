"""Orbit classes, block-abelian relations and the bound harness."""

import json
import random

import pytest

from wordorbits.complexity import (BlockPartition, block_classes,
                                   complexity_table, is_abelian_transitive,
                                   orbit_classes, p_value,
                                   verify_complexity_bound)
from wordorbits.perm import PermGroup, Permutation, parse_cycles
from wordorbits.words import (ExplicitWord, PeriodicWord, SturmianWord,
                              factors, fibonacci, thue_morse)

FIB = fibonacci()
TM = thue_morse()
G1 = PermGroup((parse_cycles("(1,2,3,4)"),))
G2 = PermGroup((parse_cycles("(1,3,2,4)"),))


def random_group(rng, n, max_gens=2):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        gens.append(Permutation(tuple(images)))
    return PermGroup(gens)


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
        elements = group.elements()
        oracle = {}
        for u in fs.members:
            images = {g.act(u) for g in elements}
            key = tuple(sorted(images & fs.member_set))
            oracle.setdefault(key, key)
        assert set(part.blocks) == set(oracle)


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
    assert data["format"] == "wordorbits/1"
    assert json.dumps(data)  # JSON-serializable
    assert [row["n"] for row in data["rows"]] == [1, 2, 3, 4]
