"""Closed-form constructions against the brute-force definitions they replace.

The oracles here are the earlier implementations: the bispecial ladder read
off factor sets (two per length), substitution prefixes rebuilt by
re-substituting the whole prefix every round, and factor sets read off a
prefix doubled until it stops adding factors.
"""

import random

import pytest

from wordorbits.construct import fine_wilf_data
from wordorbits.words import (PeriodicWord, SturmianWord, bispecial_ladder,
                              factors, parse_word_spec, special_factors)


def _directives():
    rng = random.Random(41)
    out = [(1,), (2,), (3,), (7,), (1, 2), (2, 1), (1, 1, 5), (4, 1, 1)]
    while len(out) < 32:
        d = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
        if d not in out:
            out.append(d)
    return out


DIRECTIVES = _directives()


def factor_set_ladder(source, up_to):
    """Bispecial factors per length from the left and right special factors."""
    out = []
    for n in range(up_to + 1):
        _, _, bis = special_factors(source, n)
        assert len(bis) <= 1, f"{source.name} has {len(bis)} bispecials of length {n}"
        for w in bis:
            assert w == w[::-1], f"non-palindromic bispecial {w!r} in {source.name}"
            out.append(w)
    return tuple(out)


def windows(text, n):
    return {text[i:i + n] for i in range(len(text) - n + 1)}


def doubled_prefix_factors(source, n):
    """Windows of a prefix of length L >= max(4096, 64n), doubled until L and
    2L give the same set.  A heuristic: it can stop early (see below)."""
    length = max(4096, 64 * n)
    while True:
        small = windows(source.prefix(length), n)
        large = windows(source.prefix(2 * length), n)
        if small == large:
            return tuple(sorted(large))
        length *= 2


def resubstituted_prefix(source, length):
    """Apply the substitution to the whole prefix until it is long enough."""
    table = dict(source.rules)
    word = source.seed
    while len(word) < length:
        word = "".join(table[ch] for ch in word[:length])
    return word[:length]


@pytest.mark.parametrize("directive", DIRECTIVES)
def test_ladder_matches_factor_set_oracle(directive):
    source = SturmianWord(directive)
    assert bispecial_ladder(source, 60) == factor_set_ladder(source, 60)


@pytest.mark.parametrize("directive", DIRECTIVES)
def test_ladder_is_the_palindromic_prefixes(directive):
    source = SturmianWord(directive)
    word = source.prefix(2000)
    palindromes = tuple(word[:n] for n in range(2001)
                        if word[:n] == word[:n][::-1])
    assert bispecial_ladder(source, 2000) == palindromes


@pytest.mark.parametrize("directive", DIRECTIVES)
def test_fine_wilf_data_for_every_m_up_to_400(directive):
    source = SturmianWord(directive)
    for m in range(4, 401):
        data = fine_wilf_data(source, m)
        assert len(data.w_prev) + 2 < m <= len(data.w) + 2


@pytest.mark.parametrize("spec", [
    "tm",
    "subst:0=01,1=1;seed=0",
    "subst:1=1222,2=2;seed=1",
    "subst:a=abc,b=b,c=ca;seed=a",
    "subst:x=xyzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz,y=zx,z=y;seed=x",
])
def test_prefix_matches_resubstitution_oracle(spec):
    source = parse_word_spec(spec)
    long = resubstituted_prefix(source, 3000)
    assert source.prefix(3000) == long
    for length in range(1, 400):
        assert source.prefix(length) == long[:length]


SUBSTITUTIONS = [
    "tm",
    "subst:0=01,1=0;seed=0",
    "subst:a=abc,b=b,c=ca;seed=a",
    "subst:a=ac,b=dc,c=ab,d=db;seed=a",
    "subst:a=ab,b=c,c=d,d=ba;seed=a",
    "subst:0=001,1=0;seed=0",
    "subst:0=0120,1=2,2=1;seed=0",
    "subst:0=01,1=01;seed=0",
    "subst:0=01,1=1;seed=0",
    "subst:1=1222,2=2;seed=1",
    "subst:u=uvvv,v=v;seed=u",
]


@pytest.mark.parametrize("spec", SUBSTITUTIONS)
def test_substitution_factors_match_the_doubling_oracle(spec):
    source = parse_word_spec(spec)
    for n in [*range(1, 40), 100, 257]:
        assert factors(source, n).members == doubled_prefix_factors(source, n), n


def test_fast_letter_substitution_against_a_long_prefix():
    # x's image is 42 letters, z's one: the doubling oracle settles on 27
    # factors of length 4 (4096 and 8192 letters differ, 8192 and 16384 do
    # not); the 28th appears within 32768 letters, and the certified set
    # has all 28.
    source = parse_word_spec(
        "subst:x=xyzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz,y=zx,z=y;seed=x")
    text = source.prefix(1 << 18)
    for n in (2, 3, 4, 5, 9, 30):
        assert set(factors(source, n).members) == windows(text, n), n
    assert len(doubled_prefix_factors(source, 4)) == 27
    assert len(factors(source, 4)) == 28


def test_bounded_letter_substitution_against_a_long_prefix():
    # u = x a^9000 b a^9000 c a^9000 c ...: the doubling oracle sees only
    # x a^9000 and settles on 2 factors of length 3 and 4; b and c first
    # occur past letter 9000
    source = parse_word_spec("subst:x=x" + "a" * 9000 + "b,a=a,b=c,c=c;seed=x")
    text = source.prefix(60000)
    for n, count in ((3, 8), (4, 10)):
        fs = factors(source, n)
        assert set(fs.members) == windows(text, n), n
        assert len(fs) == count
        assert fs.provenance == "certified"
        assert len(doubled_prefix_factors(source, n)) == 2


@pytest.mark.parametrize("directive", DIRECTIVES[:30])
def test_sturmian_factors_match_the_doubling_oracle(directive):
    source = SturmianWord(directive)
    for n in (1, 2, 3, 5, 8, 13, 21, 40, 77, 150):
        fs = factors(source, n)
        assert fs.members == doubled_prefix_factors(source, n), n
        assert fs.provenance == "certified"


@pytest.mark.parametrize("pattern", ["0", "01", "0010", "abcab"])
def test_periodic_factors_match_the_doubling_oracle(pattern):
    source = PeriodicWord(pattern)
    for n in [*range(1, 30), 100]:
        assert factors(source, n).members == doubled_prefix_factors(source, n), n
