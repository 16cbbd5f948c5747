import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibc import complement, fibonacci, zeckendorf
from fibc.adders import add_fib, add_fibc, berstel_adder, complement_adder
from fibc.complement import fibc_rep, sum_words
from fibc.fibonacci import fib, fib_value
from fibc.zeckendorf import (_ROUNDS, _normalize_binary, cmp_radix, fib_rep,
                             is_zeckendorf, normalize_fib)

from reference_data import ZECKENDORF_WORDS
from test_large_operands import binary_words, complement_words, ternary_words


def canonical_words(max_len):
    """All canonical words of length <= max_len, by direct construction."""
    yield ""
    frontier = ["1"]
    for _ in range(max_len):
        yield from frontier
        frontier = [w + d for w in frontier for d in "01"
                    if not (w[-1] == d == "1")]


def greedy_rep(n):
    """Zeckendorf word of n by the plain greedy algorithm on its own
    Fibonacci list: the reference for fib_rep's table lookup."""
    fibs = [1, 2]
    while fibs[-1] <= n:
        fibs.append(fibs[-1] + fibs[-2])
    digits = []
    for f in reversed(fibs[:-1]):
        if f <= n:
            n -= f
            digits.append("1")
        else:
            digits.append("0")
    return "".join(digits).lstrip("0")  # "" for n = 0


def test_rep_examples():
    assert fib_rep(0) == ""
    assert fib_rep(12) == "10101"
    assert fib_rep(29) == "1010000"
    assert fib_rep(20) == "101010"


def test_rep_matches_reference_table():
    assert [fib_rep(n) for n in range(30)] == ZECKENDORF_WORDS


def test_rep_rejects_negative():
    with pytest.raises(ValueError):
        fib_rep(-1)


def test_is_zeckendorf():
    assert is_zeckendorf("10101")
    assert not is_zeckendorf("011")
    assert not is_zeckendorf("1100")
    assert is_zeckendorf("")
    with pytest.raises(ValueError):
        is_zeckendorf("121")


def test_rep_matches_greedy_exhaustive():
    for n in range(200000):
        assert fib_rep(n) == greedy_rep(n)


def test_rep_matches_greedy_at_fibonacci_seams():
    # Covers the seam between one table word and two at F(16) and the one
    # between the table and the greedy high digits at F(32).
    for k in range(49):
        for n in range(max(0, fib(k) - 64), fib(k) + 65):
            assert fib_rep(n) == greedy_rep(n)


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=10**630))
def test_rep_matches_greedy_on_huge_n(n):
    assert fib_rep(n) == greedy_rep(n)


def test_round_trip_on_integers():
    for n in range(100001):
        assert fib_value(fib_rep(n)) == n


def test_round_trip_on_words():
    count = 0
    for w in canonical_words(20):
        count += 1
        assert fib_rep(fib_value(w)) == w
    assert count == fib(20)  # words of length <= 20 represent [0, F(20))


def test_length_interval_law():
    for w in canonical_words(20):
        if w:
            assert fib(len(w) - 1) <= fib_value(w) < fib(len(w))
        else:
            assert fib_value(w) == 0


def test_cmp_radix():
    assert cmp_radix("1", "10") < 0
    assert cmp_radix("100", "101") < 0
    assert cmp_radix("10101", "10101") == 0
    assert cmp_radix("10", "1") > 0
    assert cmp_radix("101", "100") > 0


def test_rep_is_radix_increasing():
    prev = fib_rep(0)
    for n in range(1, 5001):
        cur = fib_rep(n)
        assert cmp_radix(prev, cur) < 0
        prev = cur


def test_normalize_examples():
    assert normalize_fib("0010110100") == "100000100"
    assert normalize_fib("101010") == "101010"
    assert normalize_fib("2") == "10"


def test_normalize_exhaustive_ternary():
    # Idempotent, value-preserving and canonical on all ternary words <= 10.
    for length in range(0, 11):
        for tup in product("012", repeat=length):
            w = "".join(tup)
            z = normalize_fib(w)
            assert fib_value(z) == fib_value(w)
            assert is_zeckendorf(z)
            assert normalize_fib(z) == z
            assert z == fib_rep(fib_value(w))  # the int round trip, as oracle


def test_normalize_binary_matches_int_oracle():
    # The word-level rewriter against the int round trip it replaced.
    for length in range(0, 17):
        for tup in product("01", repeat=length):
            w = "".join(tup)
            assert normalize_fib(w) == fib_rep(fib_value(w))


def cascade_oracle(w):
    """The leftward cascade that normalized every word before the
    bit-parallel rounds: the reference on words too long for the int round
    trip, which would grow the shared Fibonacci cache to their length."""
    b = bytearray(b"0")
    b += w.encode()
    i = b.find(b"11")
    while i > 0:
        b[i - 1 : i + 2] = b"100"
        j = i - 2
        while j > 0 and b[j] == 49:
            b[j - 1 : j + 2] = b"100"
            j -= 2
        i = b.find(b"11", i + 1)
    return b.lstrip(b"0").decode()


# A carry that cascades through 10 pairs and a run of ones take one
# bit-parallel round per 11 they hold; 0111011 repeated is dense in 11s but
# takes two rounds.  SIZES gives each about 10^5 digits.
FAMILIES = (lambda k: "0" + "10" * k + "11",
            lambda k: "0" + "1" * k,
            lambda k: "0111011" * k)
SIZES = (50_000, 100_000, 14_286)


def test_normalize_binary_slow_families():
    # Either side of the switch to the cascade, against the int round trip.
    for family in FAMILIES:
        for k in range(1, 3 * _ROUNDS + 1):
            w = family(k)
            assert _normalize_binary(w) == fib_rep(fib_value(w))


def test_normalize_binary_slow_families_at_1e5_digits():
    for family, k in zip(FAMILIES, SIZES):
        w = family(k)
        assert _normalize_binary(w) == cascade_oracle(w)


adder_outputs = st.one_of(
    ternary_words().map(lambda t: berstel_adder().run(t)),
    st.tuples(complement_words(), complement_words()).map(
        lambda uv: complement_adder().run(sum_words(*uv))))


@settings(deadline=None, max_examples=150)
@given(st.one_of(binary_words(), adder_outputs))
def test_normalize_binary_matches_int_oracle_on_long_words(w):
    assert _normalize_binary(w) == fib_rep(fib_value(w))


def test_cascade_runs_only_past_the_rounds(monkeypatch):
    calls = []
    cascade = zeckendorf._cascade

    def counting(w):
        calls.append(len(w))
        return cascade(w)

    monkeypatch.setattr(zeckendorf, "_cascade", counting)
    for family, k, slow in zip(FAMILIES, SIZES, (True, True, False)):
        calls.clear()
        _normalize_binary(family(k))
        assert bool(calls) == slow
    for w in ("10" * 50_000, "0" * 1000 + "1001" * 1000, *canonical_words(16)):
        _normalize_binary(w)
    # Additions the size of the benchmark's small ones: |n| <= 10^6.
    rng = random.Random(0)
    for _ in range(2000):
        m, n = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        add_fibc(m, n)
        add_fib(abs(m), abs(n))
    assert calls == []


def test_normalize_rejects_bad_digits():
    with pytest.raises(ValueError):
        normalize_fib("0130")


class CountingList(list):
    """A list that counts element reads, each element of a slice too."""

    reads = 0

    def __getitem__(self, i):
        self.reads += len(range(*i.indices(len(self)))) if isinstance(i, slice) else 1
        return super().__getitem__(i)


def test_conversion_cost_independent_of_cache_history(monkeypatch):
    # Reads of the shared Fibonacci cache during one conversion, with a
    # cache just large enough and with one grown by fib(20000): a scan from
    # the top of the cache would differ by ~20000 reads, bisect by O(log).
    def reads(call, grow):
        fibs = CountingList([1, 2])
        for module in (fibonacci, zeckendorf, complement):
            monkeypatch.setattr(module, "_FIBS", fibs)
        call()  # grows the cache as far as the call itself needs
        if grow:
            fib(20000)
        fibs.reads = 0
        call()
        return fibs.reads

    bound = 2 * (20000).bit_length()
    # Both operands lie above F(32): below it fib_rep reads only its table.
    for call in (lambda: fib_rep(10**12), lambda: fibc_rep(-(10**12))):
        fresh, grown = reads(call, False), reads(call, True)
        assert fresh > 0
        assert abs(grown - fresh) <= bound
