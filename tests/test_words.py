"""Word sources, factor sets and the combinatorial word utilities."""

import pytest
from hypothesis import given, strategies as st

from wordorbits import words
from wordorbits.words import (ExplicitWord, PeriodicWord, StabilizationError,
                              SturmianWord, SubstitutionWord, abelian_equiv,
                              bispecial_ladder, factors, fibonacci,
                              is_balanced, is_rich_in, parikh, parikh_classes,
                              parse_word_spec, restrict, reverse,
                              special_factors, substitution, thue_morse)

FIB = fibonacci()
TM = thue_morse()
DIRECTIVES = (FIB, SturmianWord((2, 1)), SturmianWord((1, 2, 3)))


# --- prefixes ---------------------------------------------------------------

def test_fibonacci_prefix_matches_substitution_fixed_point():
    subst_fib = substitution({"0": "01", "1": "0"}, "0")
    assert FIB.prefix(13) == "0100101001001"
    assert subst_fib.prefix(13) == "0100101001001"
    assert FIB.prefix(2000) == subst_fib.prefix(2000)


def test_periodic_prefix():
    assert PeriodicWord("01").prefix(5) == "01010"


def test_prefix_consistency():
    for source in (*DIRECTIVES, TM, PeriodicWord("0110")):
        long = source.prefix(512)
        for short in (1, 7, 100, 511):
            assert long.startswith(source.prefix(short))


def test_explicit_prefix_cannot_extend():
    src = ExplicitWord("0100")
    assert src.prefix(3) == "010"
    with pytest.raises(ValueError):
        src.prefix(5)


def test_substitution_validation():
    with pytest.raises(ValueError):
        SubstitutionWord((("0", ""), ("1", "0")), "0")  # erasing
    with pytest.raises(ValueError):
        SubstitutionWord((("0", "10"), ("1", "0")), "0")  # not prolongable
    with pytest.raises(ValueError):
        SubstitutionWord((("0", "01"),), "0")  # letter 1 has no rule


def test_sturmian_validation():
    with pytest.raises(ValueError):
        SturmianWord(())
    with pytest.raises(ValueError):
        SturmianWord((1, 0))


# --- factor sets ------------------------------------------------------------

def test_fibonacci_factors_of_length_four():
    assert factors(FIB, 4).members == ("0010", "0100", "0101", "1001", "1010")


def test_periodic_factors():
    assert factors(PeriodicWord("01"), 3).members == ("010", "101")


def test_thue_morse_factor_count_against_direct_enumeration():
    # independent oracle: raw windows of a fixed long prefix
    prefix = TM.prefix(1 << 14)
    windows = {prefix[i:i + 4] for i in range(len(prefix) - 3)}
    assert factors(TM, 4).members == tuple(sorted(windows))
    assert len(factors(TM, 4)) == 10


def test_sturmian_count_law():
    for source in DIRECTIVES:
        for n in range(1, 31):
            assert len(factors(source, n)) == n + 1


def test_sturmian_two_abelian_classes_per_length():
    for source in DIRECTIVES:
        for n in range(1, 21):
            assert len(factors(source, n).parikh_classes()) == 2


def test_sturmian_reversal_closure():
    for source in DIRECTIVES:
        for n in range(1, 21):
            members = factors(source, n).member_set
            assert members == {w[::-1] for w in members}


def test_stabilization_cap_is_an_error(monkeypatch):
    monkeypatch.setattr(words, "PREFIX_CAP", 64)
    with pytest.raises(StabilizationError):
        factors(SturmianWord((1,), label="capped"), 12)


def test_explicit_source_uses_whole_prefix():
    fs = factors(ExplicitWord("0100101001001"), 3)
    assert fs.source_prefix_length == 13
    assert fs.members == ("001", "010", "100", "101")
    with pytest.raises(ValueError):
        factors(ExplicitWord("01"), 5)


# --- small word utilities ----------------------------------------------------

def test_parikh():
    assert parikh("0010") == {"0": 3, "1": 1}
    assert parikh("") == {}
    assert parikh("100101") == {"0": 3, "1": 3}


def test_abelian_equiv():
    assert abelian_equiv("0101", "1001")
    assert not abelian_equiv("0010", "0101")
    assert abelian_equiv("0110", "0110")
    with pytest.raises(ValueError):
        abelian_equiv("01", "011")


def test_restrict():
    assert restrict("0101", {1, 2}) == "01"
    assert restrict("0101", {2, 4}) == "11"
    assert restrict("0101", range(1, 5)) == "0101"
    with pytest.raises(ValueError):
        restrict("0101", {0, 2})
    with pytest.raises(ValueError):
        restrict("0101", {5})


def test_reverse():
    assert reverse("0010") == "0100"
    assert reverse("010") == "010"
    assert reverse("") == ""


@given(st.text(alphabet="01", max_size=30))
def test_reverse_involution_and_parikh(word):
    assert reverse(reverse(word)) == word
    assert parikh(reverse(word)) == parikh(word)


def test_parikh_classes_ordering():
    classes = parikh_classes(["10", "01", "00", "11"])
    assert classes == (("00",), ("01", "10"), ("11",))


# --- balance ------------------------------------------------------------------

def test_balance_examples():
    assert is_balanced(FIB, 20).balanced
    report = is_balanced(TM, 2)
    assert report == (False, 2, ("00", "11"))
    assert is_balanced(PeriodicWord("0"), 5).balanced


def test_balance_iff_two_abelian_classes():
    for source in (FIB, TM, PeriodicWord("01"), PeriodicWord("0010")):
        balanced = is_balanced(source, 15).balanced
        few_classes = all(
            len(factors(source, n).parikh_classes()) <= 2 for n in range(1, 16))
        assert balanced == few_classes


# --- special factors ----------------------------------------------------------

def test_fibonacci_special_factors():
    left, right, bis = special_factors(FIB, 1)
    assert (left, right, bis) == (("0",), ("0",), ("0",))
    assert special_factors(FIB, 3)[2] == ("010",)


def test_periodic_has_no_special_factor():
    assert special_factors(PeriodicWord("01"), 2) == ((), (), ())


def test_sturmian_unique_special_factors_per_length():
    for source in DIRECTIVES:
        for n in range(0, 16):
            left, right, _ = special_factors(source, n)
            assert len(left) == 1 and len(right) == 1


def test_bispecial_ladder():
    assert bispecial_ladder(FIB, 6) == ("", "0", "010", "010010")
    assert bispecial_ladder(FIB, 11) == ("", "0", "010", "010010", "01001010010")
    assert bispecial_ladder(FIB, 0) == ("",)
    with pytest.raises(ValueError):
        bispecial_ladder(TM, 4)


def test_ladder_entries_are_palindromes():
    for source in DIRECTIVES:
        for w in bispecial_ladder(source, 30):
            assert w == w[::-1]


# --- richness -----------------------------------------------------------------

def test_is_rich_in():
    fs = factors(FIB, 4)
    assert is_rich_in("0101", "1", fs)
    assert is_rich_in("0010", "0", fs)
    assert not is_rich_in("0010", "1", fs)
    with pytest.raises(ValueError):
        is_rich_in("1111", "1", fs)


# --- the word-spec grammar ------------------------------------------------------

def test_parse_word_spec():
    assert parse_word_spec("fib") == FIB
    assert parse_word_spec("tm") == TM
    assert parse_word_spec("sturmian:2,1") == SturmianWord((2, 1))
    sub = parse_word_spec("subst:0=01,1=0;seed=0")
    assert sub.prefix(13) == "0100101001001"
    assert parse_word_spec("periodic:01") == PeriodicWord("01")
    assert parse_word_spec("prefix:0110") == ExplicitWord("0110")
    for bad in ("fibb", "sturmian:", "sturmian:a", "subst:0=01;1=0", "nope:1"):
        with pytest.raises(ValueError):
            parse_word_spec(bad)
