"""Word sources, factor sets and the combinatorial word utilities."""

import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from wordorbits import words
from wordorbits.words import (ExplicitWord, PeriodicWord, StabilizationError,
                              SturmianWord, SubstitutionWord, bispecial_ladder,
                              factors, fibonacci, is_balanced, parikh_key,
                              parse_word_spec, restrict, special_factors,
                              substitution, thue_morse)

from helpers import parikh_classes

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
    # b keeps an image of length 1, and the factors of length 12 are read
    # off more than 64 letters
    source = parse_word_spec("subst:a=abc,b=b,c=ca;seed=a")
    assert factors(source, 12).source_prefix_length > 64
    monkeypatch.setattr(words, "PREFIX_CAP", 64)
    with pytest.raises(StabilizationError):
        factors(source, 12)


def test_sturmian_prefix_builds_only_the_letters_asked_for():
    # s_1 = 0^(10^7) 1: its first letters need no copy of 0 past the sixth
    source = SturmianWord((10 ** 7,))
    tracemalloc.start()
    try:
        assert source.prefix(6) == "000000"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(StabilizationError):
        factors(source, 3)


def test_sturmian_prefix_is_capped(monkeypatch):
    # 0^1000 1 0^1000 1 ...: the factor 100 first ends at letter 1003
    source = SturmianWord((1000,))
    assert factors(source, 3).members == ("000", "001", "010", "100")
    monkeypatch.setattr(words, "PREFIX_CAP", 64)
    with pytest.raises(StabilizationError):
        factors(source, 3)
    assert factors(FIB, 21).source_prefix_length == 64  # 42 letters, then the cap
    assert len(factors(FIB, 21)) == 22


def test_certified_paths_are_capped(monkeypatch):
    monkeypatch.setattr(words, "PREFIX_CAP", 64)
    for source, n in ((TM, 40), (PeriodicWord("01"), 63)):
        with pytest.raises(StabilizationError):
            factors(source, n)
    assert factors(PeriodicWord("01"), 60).provenance == "certified"


def test_substitution_cap_holds_before_the_images_are_built(monkeypatch):
    # σ^20 of each Thue-Morse letter is 2^20 letters long; the held cap is
    # lifted so that the prefix cap, not the Morse-Hedlund bound, raises
    monkeypatch.setattr(words, "PREFIX_CAP", 64)
    monkeypatch.setattr(words, "HELD_CAP", 1 << 62)
    tracemalloc.start()
    try:
        with pytest.raises(StabilizationError):
            factors(TM, 1 << 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("spec, n", [
    ("tm", 12), ("sturmian:2,1", 7), ("periodic:0010", 6),
    ("prefix:0110100110010110", 4), ("subst:a=abc,b=b,c=ca;seed=a", 12),
    ("subst:x=xy,y=yx;seed=x", 12)])
def test_held_letters_are_capped(monkeypatch, spec, n):
    # the cap counts distinct members times n, raising one letter below it;
    # the Sturmian word, with n + 1 members, raises by Morse-Hedlund before
    # any window is sliced; the relabeled Thue-Morse word is not flagged
    # aperiodic, so the collector raises
    source = parse_word_spec(spec)
    fs = factors(source, n)
    monkeypatch.setattr(words, "HELD_CAP", len(fs) * n)
    assert factors(source, n) == fs
    monkeypatch.setattr(words, "HELD_CAP", len(fs) * n - 1)
    with pytest.raises(StabilizationError, match="would hold"):
        factors(source, n)


def test_held_cap_counts_distinct_windows_only(monkeypatch):
    # a million windows' worth of letters are sliced, but two are distinct
    assert factors(PeriodicWord("01"), 10 ** 6).members == (
        "01" * (10 ** 6 // 2), "10" * (10 ** 6 // 2))
    # 91 windows of 10 letters, one distinct
    monkeypatch.setattr(words, "HELD_CAP", 64)
    assert factors(ExplicitWord("0" * 100), 10).members == ("0" * 10,)


@given(st.data())
def test_collected_windows_match_the_brute_force_union(data):
    base = data.draw(st.text(alphabet="01", min_size=1, max_size=40))
    cuts = st.tuples(st.integers(0, len(base)), st.integers(0, len(base)))
    texts = [base[min(a, b):max(a, b)] for a, b in data.draw(st.lists(cuts, max_size=6))]
    n, cap = data.draw(st.integers(1, 8)), data.draw(st.integers(0, 80))
    union = {t[i:i + n] for t in texts for i in range(len(t) - n + 1)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "HELD_CAP", cap)
        if len(union) * n > cap:
            with pytest.raises(StabilizationError):
                words._collect_windows(TM, texts, n)
        else:
            assert words._collect_windows(TM, texts, n) == union


def test_factor_set_is_built_in_little_more_than_it_holds():
    # 4096 windows of 1000 letters are sliced for 3022 distinct ones; each
    # repeat is freed as soon as it is sliced
    tracemalloc.start()
    try:
        fs = factors(TM, 1000)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fs) == 3022
    assert peak <= 1.15 * held


def test_provenance():
    assert factors(FIB, 9).provenance == "certified"
    assert factors(TM, 9).provenance == "certified"
    assert factors(PeriodicWord("001"), 9).provenance == "certified"
    assert factors(parse_word_spec("subst:0=01,1=1;seed=0"), 9).provenance == "certified"
    assert factors(ExplicitWord("0110"), 2).provenance == "explicit-prefix"
    with pytest.raises(ValueError):
        words.FactorSet(1, ("0",), 1, "guessed")


@pytest.mark.parametrize("spec", ["subst:0=01,1=1;seed=0", "subst:a=ab,b=c,c=b;seed=a"])
def test_bounded_letters_are_certified(spec):
    # 1, resp. b and c, keep images of length 1, so no iterate has every
    # image n - 1 long for n >= 3; the factors come from σ of whole factors
    source = parse_word_spec(spec)
    text = source.prefix(4096)  # 01111..., resp. a(bc)(bc)...
    for n in (1, 2, 3, 4, 10):
        fs = factors(source, n)
        assert fs.provenance == "certified"
        assert fs.members == tuple(sorted({text[i:i + n] for i in range(4097 - n)}))


def test_thue_morse_factors_against_popcount_windows():
    # t(i) = popcount(i) mod 2; with 2^k >= n every factor lies in a prefix
    # of length 2^(k+4)
    n = 1000
    text = "".join("01"[bin(i).count("1") & 1] for i in range(1 << 14))
    windows = {text[i:i + n] for i in range(len(text) - n + 1)}
    fs = factors(TM, n)
    assert fs.members == tuple(sorted(windows))
    assert fs.provenance == "certified"


def test_explicit_source_uses_whole_prefix():
    fs = factors(ExplicitWord("0100101001001"), 3)
    assert fs.source_prefix_length == 13
    assert fs.members == ("001", "010", "100", "101")
    with pytest.raises(ValueError):
        factors(ExplicitWord("01"), 5)


# --- small word utilities ----------------------------------------------------

def test_parikh():
    assert parikh_key("0010") == (("0", 3), ("1", 1))
    assert parikh_key("") == ()
    assert parikh_key("100101") == (("0", 3), ("1", 3))


def test_abelian_equiv():
    assert parikh_key("0101") == parikh_key("1001")
    assert parikh_key("0010") != parikh_key("0101")
    assert parikh_key("0110") == parikh_key("0110")
    assert parikh_key("01") != parikh_key("011")


def test_restrict():
    assert restrict("0101", {1, 2}) == "01"
    assert restrict("0101", {2, 4}) == "11"
    assert restrict("0101", range(1, 5)) == "0101"
    with pytest.raises(ValueError):
        restrict("0101", {0, 2})
    with pytest.raises(ValueError):
        restrict("0101", {5})


def test_reverse():
    assert "0010"[::-1] == "0100"
    assert "010"[::-1] == "010"
    assert ""[::-1] == ""


@given(st.text(alphabet="01", max_size=30))
def test_reverse_involution_and_parikh(word):
    assert word[::-1][::-1] == word
    assert Counter(word[::-1]) == Counter(word)
    assert parikh_key(word[::-1]) == parikh_key(word)


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
    best = lambda letter: max(w.count(letter) for w in fs)
    assert "0101" in fs and "0101".count("1") == best("1")
    assert "0010" in fs and "0010".count("0") == best("0")
    assert "0010".count("1") < best("1")
    assert "1111" not in fs


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
