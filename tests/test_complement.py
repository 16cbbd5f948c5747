import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibc import fibonacci
from fibc.adders import add_fibc
from fibc.complement import (canonicalize, cmp_signed, enumerate_canonical,
                             fibc_rep, is_canonical, neutral_prefix, pad_words,
                             signed_key, sum_words)
from fibc.fibonacci import _B, fib, fibc_value
from fibc.mealy import MealyMachine
from fibc.zeckendorf import fib_rep

from test_zeckendorf import own_fib, power_bits


def test_is_canonical():
    assert is_canonical("0010001")
    assert not is_canonical("00010")   # starts with 000
    assert not is_canonical("10")      # even length
    assert not is_canonical("10110")   # factor 11
    assert not is_canonical("10100")   # starts with 101
    assert is_canonical("0")
    assert is_canonical("1")
    with pytest.raises(ValueError):
        is_canonical("2")


def test_rep_examples():
    assert fibc_rep(0) == "0"
    assert fibc_rep(19) == "0101001"
    assert fibc_rep(-5) == "10000"
    assert fibc_rep(-2) == "100"


def negative_rep_by_cache(n):
    """fibc_rep(n) for n <= -2 the way it was first written: the odd index
    j found by a scan of a Fibonacci list, the least index k with
    F(k) >= -n rounded up to odd; the list is the tests' own, as fib builds
    each F(k) above F(_B) from pairs."""
    k = 0
    while own_fib(k) < -n:
        k += 1
    j = k | 1
    w = fib_rep(own_fib(j) + n)
    return "1" + "0" * (j + 1 - len(w)) + w


def test_negative_rep_matches_cache_path():
    # Exhaustive up to 200,000, then around every -F(j) for odd j <= 35,
    # where the least odd index with F(j) >= -n steps up by 2.
    for n in range(-200000, -1):
        assert fibc_rep(n) == negative_rep_by_cache(n)
    for j in range(1, 36, 2):
        for n in range(-fib(j) - 64, min(-fib(j) + 65, -1)):
            assert fibc_rep(n) == negative_rep_by_cache(n)


def test_negative_rep_matches_cache_path_beyond_f31():
    # The odd top index comes from a bound on the word length read off
    # n.bit_length(), and F(j) from fib, which keeps its list up to F(_B)
    # and builds the pairs above it from the cuts _B·2^j: around F(_B), the
    # cut points and the first digit counts, and at powers of two, where
    # the bound is loosest or tightest.
    ks = [*range(30, 200), *range(_B - 40, _B + 41)]
    ks += [(_B << j) + s for j in range(1, 5) for s in range(-8, 9)]
    values = [fib(k) + d for k in ks for d in (-1, 0, 1)]
    values += [2**b + d for b in power_bits() for d in (-1, 0, 1)]
    for n in values:
        if n >= 2:
            assert fibc_rep(-n) == negative_rep_by_cache(-n), n


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=fib(31) + 1, max_value=10**1500))
def test_negative_rep_matches_cache_path_on_huge_n(n):
    assert fibc_rep(-n) == negative_rep_by_cache(-n)


def test_import_and_adders_leave_cache_at_two():
    src = Path(fibonacci.__file__).resolve().parent.parent
    code = ("import fibc\n"
            "from fibc.adders import berstel_adder, complement_adder\n"
            "berstel_adder(); complement_adder()\n"
            "print(len(fibc.fibonacci._FIBS))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "2"


def test_round_trip_integers():
    for n in range(-50000, 50001):
        w = fibc_rep(n)
        assert is_canonical(w)
        assert fibc_value(w) == n


def test_round_trip_huge_integers():
    for n in (10**40, -(10**40), 7**33, -(3**80) - 1):
        w = fibc_rep(n)
        assert is_canonical(w)
        assert fibc_value(w) == n


def test_round_trip_words_exhaustive():
    words = enumerate_canonical(17)
    assert len(words) == fib(15) + fib(16)  # covers [-F(15), F(16))
    for w in words:
        assert fibc_rep(fibc_value(w)) == w


def test_neutral_prefix():
    assert neutral_prefix("0010001") == "00"
    assert neutral_prefix("1") == "10"
    assert neutral_prefix("100") == "10"
    with pytest.raises(ValueError):
        neutral_prefix("")


def test_pad_words():
    assert pad_words("1", "1000101") == ("1010101", "1000101")
    assert pad_words("0", "0") == ("0", "0")
    assert pad_words("001", "01000") == ("00001", "01000")
    assert fibc_value("00001") == 1


def test_pad_words_rejects_bad_input():
    with pytest.raises(ValueError):
        pad_words("10", "0")      # even length
    with pytest.raises(ValueError):
        pad_words("110", "0")     # not canonical
    with pytest.raises(ValueError):
        pad_words("000", "0")     # neutral-prefixed already


def test_pad_words_preserves_values():
    for a in range(-30, 31):
        for b in range(-30, 31):
            pa, pb = pad_words(fibc_rep(a), fibc_rep(b))
            assert len(pa) == len(pb)
            assert fibc_value(pa) == a
            assert fibc_value(pb) == b


def test_sum_words():
    assert sum_words("1", "1000101") == "2010202"
    assert sum_words("0", "0") == "0"
    assert sum_words("001", "001") == "002"
    assert fibc_value("002") == 2


def test_sum_words_rejects_unpaddable_input():
    with pytest.raises(ValueError):
        sum_words("10", "0")
    with pytest.raises(ValueError):
        sum_words("0", "0110")


def test_canonicalize():
    assert canonicalize("100110100") == "1000100"
    assert canonicalize("110110100") == "001000100"
    assert canonicalize("0") == "0"
    assert canonicalize("11100") == "00100"
    assert fibc_value("11100") == 3  # 16 - F(5); the sign-split law needs 11-free words


def test_canonicalize_matches_int_oracle():
    # The word-level canonicalization against the int round trip.
    for length in range(1, 17):
        for tup in product("01", repeat=length):
            w = "".join(tup)
            assert canonicalize(w) == fibc_rep(fibc_value(w))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["0", "1", "11", "100", "1010", "101011", "10" * 500]),
       st.integers(min_value=1025, max_value=12000), st.integers(min_value=0))
def test_canonicalize_matches_int_oracle_on_long_words(head, length, seed):
    # Both parities past 1024 digits; the heads reach both prefix rewrites
    # of an even-length 1-leading word, behind neutral 10 pairs or not.
    tail = length - len(head)
    w = head + format(random.Random(seed).getrandbits(tail), f"0{tail}b")
    assert canonicalize(w) == fibc_rep(fibc_value(w))


def own_fibc_value(w):
    """Complement value of a word from the tests' own Fibonacci list."""
    value = sum(own_fib(i) for i, c in enumerate(reversed(w)) if c == "1")
    return value - own_fib(len(w)) if w[0] == "1" else value


def test_long_alternating_prefixes_against_ints():
    # Words that start 1010...: up to k digits of neutral 10 pairs that
    # _canonical strips in one search, ending in 00 or running to the end.
    # The sum (F(k) - 1) + (-F(k) - d) is -1 - d, read from k-digit words.
    for k in [*range(1, 70), *range(500, 5001, 500), 4999]:
        f = own_fib(k)
        for n in (f - 1, 1 - f, f, -f):
            w = fibc_rep(n)
            assert is_canonical(w) and own_fibc_value(w) == n, (k, n)
        for d in (0, 1, 2, 4, 11):
            for m, n in ((f - 1, -f - d), (-f - d, f - 1), (1 - f, -d)):
                w = add_fibc(m, n)
                assert is_canonical(w) and own_fibc_value(w) == m + n, (k, m, n)
        for w in ("10" * k + "1", "10" * k + "01", "10" * k + "0001"):
            assert canonicalize(w) == fibc_rep(own_fibc_value(w)), (k, w[-4:])


def test_canonicalize_runs_no_adder(monkeypatch):
    # Even lengths too move to odd length by a prefix rewrite, not a run.
    words = ["".join(t) for k in range(2, 13, 2) for t in product("01", repeat=k)]
    expected = [fibc_rep(fibc_value(w)) for w in words]

    def no_run(*args, **kwargs):
        raise AssertionError("canonicalize ran an adder")

    monkeypatch.setattr(MealyMachine, "run", no_run)
    assert [canonicalize(w) for w in words] == expected


def test_canonicalize_rejects_bad_input():
    with pytest.raises(ValueError):
        canonicalize("")
    with pytest.raises(ValueError):
        canonicalize("102")


def test_canonicalize_idempotent():
    for n in range(-300, 301):
        w = fibc_rep(n)
        assert canonicalize(w) == w


def test_cmp_signed():
    assert cmp_signed("1", "0") < 0
    assert cmp_signed("0", "001") < 0
    assert cmp_signed("100", "1") < 0
    assert cmp_signed("010", "010") == 0
    with pytest.raises(ValueError):
        signed_key("")


def test_enumerate_small():
    assert enumerate_canonical(1) == ["1", "0"]
    assert enumerate_canonical(3) == ["100", "1", "0", "001", "010"]
    words5 = enumerate_canonical(5)
    assert len(words5) == 13
    assert [fibc_value(w) for w in words5] == list(range(-5, 8))


def brute_force_enumeration(max_len):
    """Every binary word of odd length <= max_len that is_canonical accepts,
    sorted by signed_key: the oracle for the digit-by-digit enumeration."""
    words = [
        w
        for length in range(1, max_len + 1, 2)
        for w in ("".join(t) for t in product("01", repeat=length))
        if is_canonical(w)
    ]
    words.sort(key=signed_key)
    return words


def test_enumerate_matches_brute_force():
    for max_len in range(1, 18, 2):
        assert enumerate_canonical(max_len) == brute_force_enumeration(max_len)


def test_enumerate_counts():
    for max_len in range(1, 26, 2):
        assert len(enumerate_canonical(max_len)) == fib(max_len)


def test_enumerate_rejects_even():
    with pytest.raises(ValueError):
        enumerate_canonical(4)
    with pytest.raises(ValueError):
        enumerate_canonical(0)


def test_enumerate_is_contiguous_interval():
    words = enumerate_canonical(15)
    values = [fibc_value(w) for w in words]
    assert values == list(range(-fib(13), fib(14)))
    assert [fibc_rep(v) for v in values] == words
