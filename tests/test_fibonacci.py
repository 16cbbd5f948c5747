import random
import threading
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibc.adders import add_words
from fibc.complement import canonicalize, is_canonical, neutral_prefix, pad_words
from fibc.fibonacci import (_B, fib, fib_value, fibc_value, twos_complement_rep,
                            twos_complement_value)
from fibc.zeckendorf import is_zeckendorf, normalize_fib
from fibc.verify import identities_check


def test_fib_small_values():
    assert [fib(i) for i in range(8)] == [1, 2, 3, 5, 8, 13, 21, 34]
    assert fib(5) == 13


def test_fib_backward_extension():
    assert fib(-1) == 1
    assert fib(-2) == 0
    assert fib(0) == fib(-1) + fib(-2)
    assert fib(1) == fib(0) + fib(-1)


def test_fib_rejects_small_index():
    with pytest.raises(ValueError):
        fib(-3)


def test_fib_recurrence_and_growth():
    values = [fib(i) for i in range(200)]
    assert all(values[i] == values[i - 1] + values[i - 2] for i in range(2, 200))
    assert all(values[i] < values[i + 1] for i in range(199))
    assert fib(91) > 2**63  # exact big integers, no overflow


def test_fib_concurrent_readers():
    results = []

    def worker():
        results.append([fib(i) for i in range(400, 500)])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = [fib(i) for i in range(400, 500)]
    assert all(r == expected for r in results)


def test_fib_value_examples():
    assert fib_value("101010") == 20
    assert fib_value("") == 0
    assert fib_value("2010202") == 58
    assert fib_value("2220121") == 92


def test_fib_value_rejects_bad_digit():
    with pytest.raises(ValueError):
        fib_value("103")


_VALIDATING = [  # public entry point on one word, and the alphabet it names
    (fib_value, "ternary"),
    (fibc_value, "ternary"),
    (normalize_fib, "ternary"),
    (is_zeckendorf, "binary"),
    (is_canonical, "binary"),
    (neutral_prefix, "binary"),
    (canonicalize, "binary"),
    (twos_complement_value, "binary"),
    (lambda w: pad_words("1", w), "binary"),
    (lambda w: add_words(w, "1"), "binary"),
]
_BAD_WORDS = [  # word, its first invalid digit as a binary and as a ternary word
    ("3010", "3", "3"), ("0310", "3", "3"), ("0103", "3", "3"), ("01²0", "²", "²"),
    ("1223", "2", "3"),
]


@pytest.mark.parametrize("check, alphabet", _VALIDATING, ids=[
    "fib_value", "fibc_value", "normalize_fib", "is_zeckendorf", "is_canonical",
    "neutral_prefix", "canonicalize", "twos_complement_value", "pad_words", "add_words"])
@pytest.mark.parametrize("word, binary_digit, ternary_digit", _BAD_WORDS)
def test_invalid_digit_message(check, alphabet, word, binary_digit, ternary_digit):
    digit = binary_digit if alphabet == "binary" else ternary_digit
    with pytest.raises(ValueError) as err:
        check(word)
    assert str(err.value) == f"invalid digit '{digit}' in {alphabet} word '{word}'"


def test_fibc_value_examples():
    assert fibc_value("1") == -1
    assert fibc_value("1000100") == -10
    assert fibc_value("100110100") == -10
    assert fibc_value("110110100") == 24
    assert fibc_value("2220121") == 24


def test_fibc_value_rejects_empty_and_bad():
    with pytest.raises(ValueError):
        fibc_value("")
    with pytest.raises(ValueError, match="invalid digit"):
        fibc_value("12x")


def test_fibc_value_relation_to_fib_value():
    # Exhaustive over binary words of length <= 16.
    for length in range(1, 17):
        for tup in product("01", repeat=length):
            w = "".join(tup)
            assert fibc_value(w) == fib_value(w) - (ord(w[0]) - 48) * fib(length)


def rolling_value(w):
    """Fibonacci value by rolling (F(i), F(i-1)) up the word from the right,
    one digit at a time: the oracle for fib_value, which splits long words
    at cuts.  Quadratic, and independent of fib and its kept pairs."""
    total, f, g = 0, 1, 1
    for c in reversed(w):
        if c != "0":
            total += (ord(c) - 48) * f
        f, g = f + g, f
    return total


def assert_values_match_oracle(w):
    assert fib_value(w) == rolling_value(w), len(w)
    if w:  # F(k) is the value of 1·0^k
        lead = rolling_value(w[0] + "0" * len(w))
        assert fibc_value(w) == rolling_value(w) - lead, len(w)


def test_values_match_rolling_oracle_on_short_words():
    # Every ternary word of length <= 10 and binary word of length <= 16.
    for alphabet, max_len in (("012", 10), ("01", 16)):
        for length in range(max_len + 1):
            for tup in product(alphabet, repeat=length):
                assert_values_match_oracle("".join(tup))


def test_values_match_rolling_oracle_at_the_cuts():
    # Lengths _B·2^j + d, either side of each cut that fib_value splits at.
    rng = random.Random(17)
    for k in ((_B << j) + d for j in range(5) for d in range(-2, 3)):
        for _ in range(3):
            assert_values_match_oracle("".join(rng.choices("012", k=k)))
        assert_values_match_oracle("1" + "0" * (k - 1))


@st.composite
def long_ternary_words(draw):
    # Past the first cut and up to 12,000 digits: cuts 1024 to 8192.
    k = draw(st.integers(min_value=_B + 1, max_value=12_000))
    u, v = (format(draw(st.integers(0, 2**k - 1)), "b").zfill(k) for _ in "uv")
    return "".join("012"[int(a) + int(b)] for a, b in zip(u, v))


@settings(deadline=None, max_examples=60)
@given(long_ternary_words())
def test_values_match_rolling_oracle_on_long_words(w):
    assert_values_match_oracle(w)


def test_twos_complement_value_examples():
    assert twos_complement_value("01011") == 11
    assert twos_complement_value("10001") == -15
    assert twos_complement_value("11100") == -4


def test_twos_complement_value_rejects_empty_and_nonbinary():
    with pytest.raises(ValueError):
        twos_complement_value("")
    with pytest.raises(ValueError):
        twos_complement_value("102")


def test_twos_complement_rep_examples():
    assert twos_complement_rep(-4) == "100"
    assert twos_complement_rep(0) == "0"
    assert twos_complement_rep(11) == "01011"


def test_twos_complement_round_trip_and_shape():
    for n in range(-2000, 2001):
        w = twos_complement_rep(n)
        assert twos_complement_value(w) == n
        assert not w.startswith("00") and not w.startswith("11")


def loop_twos_complement_rep(n):
    """Reference: finds the word width by a search, one shift per bit."""
    if n >= 0:
        return "0" if n == 0 else "0" + bin(n)[2:]
    k = 1
    while n < -(1 << (k - 1)):
        k += 1
    if k == 1:
        return "1"
    return "1" + format(n + (1 << (k - 1)), f"0{k - 1}b")


def test_twos_complement_rep_matches_loop_reference():
    for n in range(-5000, 5001):
        assert twos_complement_rep(n) == loop_twos_complement_rep(n)


def test_twos_complement_round_trip_on_huge_negatives():
    for k in (1, 10, 100, 1000, 20000):
        w = twos_complement_rep(-10**k)
        assert twos_complement_value(w) == -10**k
        assert w.startswith("10")  # shortest: no 11 prefix


def test_twos_complement_words_are_unique_per_value():
    # Over all prefix-reduced words up to length 12, values never collide
    # and the representation map picks exactly the word of that value.
    seen = {}
    for length in range(1, 13):
        for tup in product("01", repeat=length):
            w = "".join(tup)
            if w.startswith("00") or w.startswith("11"):
                continue
            n = twos_complement_value(w)
            assert n not in seen, (w, seen[n])
            seen[n] = w
            assert twos_complement_rep(n) == w
    assert set(seen) == set(range(-2**11, 2**11))


def test_twos_complement_neutral_prefixes():
    val = twos_complement_value
    for length in range(0, 13):
        for tup in product("01", repeat=length):
            w = "".join(tup)
            assert val("00" + w) == val("0" + w)
            assert val("11" + w) == val("1" + w)


def test_identities_hand_checked_at_k1():
    # 1*3 - 2*2 == -1 == -F(0); 1 + 2 == F(3) - 2; 1 + 4 == F(0) * F(3)
    result = identities_check(1)
    assert result.ok and result.checked == 1


def test_square_sum_sequence_values():
    # The square-sum side for k = 1..5 is 5, 39, 272, 1869, 12815.
    sums = [sum(fib(i) ** 2 for i in range(2 * k)) for k in range(1, 6)]
    assert sums == [5, 39, 272, 1869, 12815]
