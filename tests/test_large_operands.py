"""Random properties on operands of up to about 3,000 Fibonacci digits,
checked against Python int arithmetic."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from fibc.adders import add_fib, add_fibc, add_words
from fibc.complement import canonicalize, fibc_rep, is_canonical
from fibc.fibonacci import fib_value, fibc_value
from fibc.zeckendorf import fib_rep, normalize_fib

BOUND = 10**630  # about F(3010)
MAX_DIGITS = 3000

naturals = st.integers(min_value=0, max_value=BOUND)
integers = st.integers(min_value=-BOUND, max_value=BOUND)
lengths = st.integers(min_value=1, max_value=MAX_DIGITS)
slow = settings(deadline=None, max_examples=150)


@st.composite
def binary_words(draw):
    k = draw(lengths)
    return format(draw(st.integers(0, 2**k - 1)), "b").zfill(k)


@st.composite
def ternary_words(draw):
    u = draw(binary_words())
    v = format(draw(st.integers(0, 2 ** len(u) - 1)), "b").zfill(len(u))
    return "".join(str(int(a) + int(b)) for a, b in zip(u, v))


def no_11(w):
    # Left to right, the second 1 of each 11 becomes 0.
    return re.sub("11", "10", w)


@st.composite
def zeckendorf_words(draw):
    return no_11(draw(binary_words())).lstrip("0")


@st.composite
def complement_words(draw):
    w = no_11(draw(binary_words()))
    if len(w) % 2 == 0:
        w = w[1:]
    while w[:3] in ("000", "101"):  # drop neutral 00 / 10 padding
        w = w[2:]
    return w


@slow
@given(integers, integers)
def test_add_fibc(m, n):
    assert add_fibc(m, n) == fibc_rep(m + n)


@slow
@given(naturals, naturals)
def test_add_fib(m, n):
    assert add_fib(m, n) == fib_rep(m + n)


@slow
@given(complement_words(), complement_words())
def test_add_words(u, v):
    assert is_canonical(u) and is_canonical(v)
    assert add_words(u, v) == fibc_rep(fibc_value(u) + fibc_value(v))


@slow
@given(integers, naturals)
def test_int_round_trips(n, k):
    assert fibc_value(fibc_rep(n)) == n
    assert fib_value(fib_rep(k)) == k


@slow
@given(complement_words(), zeckendorf_words())
def test_word_round_trips(w, z):
    assert fibc_rep(fibc_value(w)) == w
    assert fib_rep(fib_value(z)) == z


@slow
@given(binary_words())
def test_canonicalize(w):
    assert canonicalize(w) == fibc_rep(fibc_value(w))


@slow
@given(ternary_words())
def test_normalize_fib(w):
    assert normalize_fib(w) == fib_rep(fib_value(w))
