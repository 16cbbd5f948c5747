import importlib
import pkgutil
import random
import subprocess
import sys
from itertools import product
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibc
from fibc import fibonacci, zeckendorf
from fibc.adders import add_fib, add_fibc, berstel_adder, complement_adder
from fibc.complement import fibc_rep, sum_words
from fibc.fibonacci import _B, _fib_pair, fib, fib_value, fibc_value
from fibc.zeckendorf import (_INV_PHI, _ROUNDS, _SETTLE_STEPS, _cut_point, _div_phi,
                             _normalize_binary, _settle, _top_index, cmp_radix, fib_rep,
                             is_zeckendorf, normalize_fib)

from test_large_operands import binary_words, complement_words, no_11, ternary_words


def canonical_words(max_len):
    """All canonical words of length <= max_len, by direct construction."""
    yield ""
    frontier = ["1"]
    for _ in range(max_len):
        yield from frontier
        frontier = [w + d for w in frontier for d in "01"
                    if not (w[-1] == d == "1")]


_OWN_FIBS = [1, 1]  # F(-1), F(0), F(1), ...: the tests' own list, not fibc's


def own_fib(i):
    """F(i) for i >= -1 by the plain recurrence on the tests' own list."""
    while len(_OWN_FIBS) <= i + 1:
        _OWN_FIBS.append(_OWN_FIBS[-1] + _OWN_FIBS[-2])
    return _OWN_FIBS[i + 1]


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


def greedy_near(k, d):
    """greedy_rep(fib(k) + d) for small |d|, the greedy's steps on a
    Fibonacci seam written out so that a word of thousands of digits needs
    no Fibonacci list: from F(k) + d >= F(k) it takes F(k), then writes d;
    below F(k) it takes F(k-1), F(k-3), ... while the rest is at least the
    next of them, then writes what is left, F(i) + d."""
    if d >= 0:
        if d < fib(k - 1):
            return "1" + greedy_rep(d).zfill(k)
        return greedy_rep(fib(k) + d)
    i = k % 2
    while i < k and fib(i) < -d:
        i += 2
    return ("10" * ((k - i) // 2) + greedy_rep(fib(i) + d).zfill(i)).lstrip("0")


def test_seam_oracle_is_the_greedy():
    for k in list(range(70)) + [100, 301, 1024]:
        for d in range(-64, 65):
            if fib(k) + d >= 0:
                assert greedy_near(k, d) == greedy_rep(fib(k) + d)


SEAM = range(-64, 65)
NEAR = (-64, -2, -1, 0, 1, 2, 64)


def power_bits():
    """Exponents b for the seam inputs 2^b - 1, 2^b, 2^b + 1: every b up to
    the bit length of F(_B), and those near the bit lengths of F(2·_B),
    F(4·_B) and F(8·_B)."""
    near = [fib(_B << j).bit_length() + s for j in (1, 2, 3) for s in range(-3, 3)]
    return [*range(1, fib(_B).bit_length() + 1), *near]


def test_rep_matches_greedy_at_leaf_and_cut_seams():
    # Leaves are cut every 64 digits and below F(32) read from the table;
    # above F(4·_B) the cuts fall at _B·2^j, from 4·_B on.  SEAM runs at
    # every k <= 160 (each chunk position several times), within 4 below
    # every 32-digit boundary below _B (so below every 64-digit cut, where
    # the length bound takes one spare cut), within 64 of _B and within 2
    # of 2·_B, 3·_B, 4·_B (the leaf's edge and the first cut) and 8·_B;
    # NEAR at every other k <= 3·_B + 64.  SEAM at every k would take ten
    # times as long.
    spare = 0
    ks = [*range(3 * _B + 65), *range(4 * _B - 2, 4 * _B + 3), *range(8 * _B - 2, 8 * _B + 3)]
    for k in ks:
        full = (k <= 160 or (k < _B and -k % 32 <= 4) or abs(k - _B) <= 64
                or min(k % _B, -k % _B) <= 2)
        for d in SEAM if full else NEAR:
            n = fib(k) + d
            if n >= 0:
                w, t = fib_rep(n), _top_index(n)
                assert w == greedy_near(k, d), (k, d)
                # _top_index is at most 2 above the top digit below F(3000).
                assert k > 3 * _B + 64 or len(w) - 1 <= t <= len(w) + 1, (k, d)
                spare += fib(32) <= n < fib(_B) and t // 64 > (len(w) - 1) // 64
    assert spare > 1000
    # The length bound _top_index comes from n.bit_length(), so it is
    # loosest or tightest at powers of two: every one below F(_B), and
    # those whose words reach 2·_B, 4·_B and 8·_B digits.
    for b in power_bits():
        for n in (2**b - 1, 2**b, 2**b + 1):
            assert fib_rep(n) == greedy_rep(n), n


def test_rep_matches_greedy_at_block_seams():
    # fib_rep reads a word below F(32) as two 16-digit blocks, one below
    # F(64) as one chunk of four, each block from an estimate checked
    # against the values V(a·0^p) of the block words a followed by p zeros.
    # The estimate is at its extremes at every such value and just below
    # it: these and one above, for every block word a and p = 16, 32, 48,
    # about 23k values below F(64) < 2^45.  The block table holds each v
    # for p = 16, then the sentinel F(32).
    table = zeckendorf._low_table()[2]
    assert len(table) == fib(16) + 1 and table[-1] == own_fib(32)
    for p in (16, 32, 48):
        for a in range(fib(16)):
            v = sum(own_fib(i + p) for i, c in enumerate(reversed(greedy_rep(a))) if c == "1")
            if p == 16:
                assert table[a] == v, a
            for n in (v - 1, v, v + 1):
                if n >= 0:
                    assert fib_rep(n) == greedy_rep(n), (p, a, n)


def test_block_table_is_read_only():
    # _low_table is cached, so every caller shares its sequences.
    words, padded, shifted, levels = zeckendorf._low_table()
    for seq in (words, padded, shifted, levels, *levels):
        with pytest.raises(TypeError):
            seq[0] = seq[0]


def padded_greedy(chunks):
    """The digits of 64-digit chunks of the given values, most significant
    first, each the greedy word of its value zero-padded."""
    return "".join(greedy_rep(c).zfill(64) for c in chunks)


def test_packed_reader_at_block_seams():
    # Above F(32) the chunks of a word are read in one packed pass, a 64-bit
    # field each, by the same few operations on the whole int.  A block
    # estimate is at its extremes at each value V(a·0^p) of a block word a
    # followed by p zeros: these, for every a <= F(16) at every block offset
    # p of a chunk, and one either side, 18 chunks (1,152 digits) to a pass,
    # so that each field has others beside it in the same int.
    values = []
    for p in (0, 16, 32, 48):
        for a in range(fib(16) + 1):
            v = sum(own_fib(i + p) for i, c in enumerate(reversed(greedy_rep(a))) if c == "1")
            values += [c for c in (v - 1, v, v + 1) if 0 <= c < own_fib(64)]
    assert len(values) == 4 * 3 * 2585 - 4 - 2  # no -1 at a = 0, no F(64) or F(64) + 1
    for i in range(0, len(values), 18):
        chunks = (values[i : i + 18] + values[:18])[:18]
        assert zeckendorf._read_chunks(chunks) == padded_greedy(chunks), chunks


def test_packed_reader_on_extreme_chunks():
    # The least and the greatest chunk, 0 and F(64) - 1 = "10" * 32, each at
    # every position among 160 chunks of the other (10,240 digits).  The
    # largest field at block level p = 48, 32, 16 is F(p + 16) - 1, with
    # x·K + 2^49 near 2^61.3; F(48) - 1, F(32) - 1 and F(16) - 1, whose
    # higher blocks are 0, are each put at every position among 160 chunks
    # of 0 and among 160 chunks of F(64) - 1.
    least, greatest = 0, own_fib(64) - 1
    values = (least, greatest, own_fib(48) - 1, own_fib(32) - 1, own_fib(16) - 1)
    words = {c: padded_greedy([c]) for c in values}
    cases = [(least, greatest), (greatest, least)]
    cases += [(fill, value) for value in values[2:] for fill in (least, greatest)]
    for fill, value in cases:
        for i in range(160):
            chunks = [fill] * 160
            chunks[i] = value
            expected = "".join(words[c] for c in chunks)
            assert zeckendorf._read_chunks(chunks) == expected, (fill, value, i)


def test_rep_at_cut_points():
    # F(k) - 1 is the alternating maximum "1010..." of length k.
    for j in range(5):
        for k in range((_B << j) - 2, (_B << j) + 3):
            for d in (-2, -1, 0, 1):
                assert fib_rep(fib(k) + d) == greedy_near(k, d), (k, d)


@settings(deadline=None, max_examples=12)
@given(st.integers(min_value=0, max_value=10**6000))
def test_rep_matches_greedy_up_to_1e6000(n):
    assert fib_rep(n) == greedy_rep(n)


def div_phi_oracle(a):
    return (isqrt(5 * a * a) - a) // 2  # floor(a·sqrt(5)/2 - a/2) = floor(a/phi)


def test_div_phi_exhaustive():
    for a in range(10**6 + 1):
        assert _div_phi(a, a * _INV_PHI, 128) == div_phi_oracle(a)
    # A leaf takes floor(a/phi) as (a * _INV_PHI) >> 128, with no search,
    # for a <= F(64) + 2: check it where a/phi comes closest to an integer,
    # a = F(k) + d, and at random.
    near = [own_fib(k) + d for k in range(67) for d in range(-2, 3) if own_fib(k) + d >= 0]
    rng = random.Random(15)
    for a in near + [rng.randrange(own_fib(64) + 3) for _ in range(10**5)]:
        assert ((a * _INV_PHI) >> 128) == div_phi_oracle(a), a
    # A 1/phi of 4 bits leaves up to a/16 candidates to the exact search.
    for a in range(10**4):
        assert _div_phi(a, a * 9, 4) == div_phi_oracle(a)


def test_div_phi_on_10k_digit_numbers():
    rng = random.Random(12)
    *_, inv, p = _cut_point(6, 128 * _B)  # 1/phi to about 45,500 bits
    for _ in range(40):
        a = rng.randrange(10**9999, 10**10000)  # about 33,200 bits
        assert _div_phi(a, a * inv, p) == div_phi_oracle(a)
        for bits in (2, 8):  # a coarse 1/phi: the search decides
            q = p - a.bit_length() - bits
            assert _div_phi(a, a * (inv >> q), p - q) == div_phi_oracle(a)


def test_fib_pair_and_cut_constants():
    # fibc keeps F(i) in a list up to F(_B) and builds the pairs above it
    # from the cuts _B·2^j, so check across the cap and around every cut.
    ks = [*range(3 * _B + 65), *((_B << j) + s for j in range(5) for s in range(-2, 3))]
    for k in ks:
        assert fib(k) == own_fib(k), k
        assert _fib_pair(k) == (own_fib(k - 1), own_fib(k)), k
    def recip(m, t, p):  # floor(2^(t+p) / D) from the tests' own F and 1/phi
        return (1 << t + p) // ((own_fib(m - 1) << p) + own_fib(m - 2) * div_phi_oracle(1 << p))

    # Every cut constant against its oracle: the three block levels, then
    # the 63 leaf cuts (n < F(m + 64), p = 128) and the upper cuts at
    # m = _B·2^j for the 16 tops m + i·m/16 up to 2m, with the bounds the
    # estimate (n >> s)·K >> c needs: K·2^-c < 2^-8, F(top) < 2^(s+c-8) and
    # F(top) < F(m-1)·2^(p-10), and 1/phi to 64 bits more than F(top - m).
    levels = zeckendorf._low_table()[3]
    assert levels == tuple((own_fib(p - 1), own_fib(p - 2), recip(p, 50, 128)) for p in (48, 32, 16))
    limit, cuts = zeckendorf._leaf_table()
    assert limit == own_fib(4 * _B) and len(cuts) == 4 * _B // 64 - 1
    upper = []
    for j in range(5):
        m = _B << j
        upper += [(m, top, _cut_point(j, top)) for top in range(m + m // 16, 2 * m + 1, m // 16)]
    leaves = [(64 * (i + 1), 64 * (i + 2), (*cut, _INV_PHI, 128)) for i, cut in enumerate(cuts)]
    for m, top, (f0, f1, f2, k, s, c, inv, p) in leaves + upper:
        assert (f0, f1, f2) == (own_fib(m), own_fib(m - 1), own_fib(m - 2)), m
        assert inv == div_phi_oracle(1 << p)  # floor(2^p / phi)
        assert k == recip(m, s + c, p), m
        # F(top) = F(m-1)·F(top-m) + F(m-2)·F(top-m-1): no own_fib list to 2m.
        f_top = own_fib(top) if top <= 4 * _B else f1 * own_fib(top - m) + f2 * own_fib(top - m - 1)
        assert k < 1 << c - 8 and f_top < 1 << s + c - 8 and f_top < f1 << p - 10, (m, top)
        assert own_fib(top - m) < 1 << p - 64, (m, top)
    # Words whose top digits weigh F(i) on both sides of F(_B) and the cuts.
    rng = random.Random(14)
    for k in (_B - 1, _B, _B + 1, _B + 2, 2 * _B + 1, 3 * _B + 65, (_B << 4) + 2):
        for w in ("1" + "0" * (k - 1), "2" * k, "".join(rng.choices("012", k=k))):
            value = sum((ord(c) - 48) * own_fib(i) for i, c in enumerate(reversed(w)))
            assert fib_value(w) == value, k
            assert fibc_value(w) == value - (ord(w[0]) - 48) * own_fib(k), k


def settle_from(x, y, rest, f0, f1, x2):
    """_settle's arguments moved from the estimate x to x2 >= 0: rest =
    n - S(x) becomes n - S(x2), with the oracle's floor((x2+1)/phi)."""
    y2 = div_phi_oracle(x2 + 1)
    return x2, y2, rest + f1 * (x - x2) + (f0 - f1) * (y - y2)


def test_estimates_off_by_three_stay_exact(monkeypatch):
    # Every cut steps from a fixed-point estimate of x, (n >> s)·K >> c with
    # the K of _leaf_table or of _cut_point.  Each cut keeps its estimate when
    # n - S(x) is in [0, S(x+1) - S(x)) and hands it to _settle otherwise.
    # Estimates off by three through both tables, or steps with a 1/phi of
    # two spare bits, must not change a word.
    rng = random.Random(3)
    values = [rng.randrange(fib(k)) for k in (40, 500, 1024, 1100, 2500, 5000, 9000)]
    values += [fib(k) + d for k in (33, 64, _B, _B + 1, 2 * _B + 1, 4 * _B, 4 * _B + 1, 8 * _B + 1)
               for d in (-1, 0, 1)]
    expected = [greedy_rep(n) for n in values]
    limit, cuts = zeckendorf._leaf_table()
    cut_point = zeckendorf._cut_point
    estimates, precisions = [], set()

    def skew_estimates(skew):
        class Product(int):  # n·K whose shift is off by skew
            def __rshift__(self, shift):
                return max((int(self) >> shift) + skew, 0)

        class Scale(int):  # K whose products with n are Products
            def __rmul__(self, n):
                estimates.append(n)
                return Product(n * int(self))
        def skewed(cut):
            return (*cut[:3], Scale(cut[3]), *cut[4:])
        leaves = tuple(map(skewed, cuts))
        monkeypatch.setattr(zeckendorf, "_leaf_table", lambda: (limit, leaves))
        monkeypatch.setattr(zeckendorf, "_cut_point", lambda j, top: skewed(cut_point(j, top)))

    def recording(x, y, rest, f0, f1, inv, p):
        precisions.add(p)
        return _settle(x, y, rest, f0, f1, inv, p)

    monkeypatch.setattr(zeckendorf, "_settle", recording)
    for skew in (-3, 3):
        skew_estimates(skew)
        assert [fib_rep(n) for n in values] == expected
    assert 128 in precisions and len(precisions) > 1  # leaves and upper cuts

    # Estimates still off by 3 all fail the cut's check, so the coarse steps
    # start from each of them.
    searches = []

    def coarse(x, y, rest, f0, f1, inv, p):
        searches.append(x)
        q = max(p - x.bit_length() - 2, 0)
        return _settle(x, y, rest, f0, f1, inv >> q, p - q)
    monkeypatch.setattr(zeckendorf, "_settle", coarse)
    estimates.clear()
    assert [fib_rep(n) for n in values] == expected
    assert len(searches) >= len(estimates) > 100


def test_leaf_estimates_are_within_one(monkeypatch):
    # _settle never decides a word, so only its cost shows a leaf estimate
    # gone wrong: each must be within one of the chunk, and x moves on about
    # one chunk in seven (637 of 4,654 here: 464 estimates one above the
    # chunk, 173 one below).  The leaf keeps every right estimate, checking
    # n - S(x) < S(x+1) - S(x) exactly, so each of its _settle calls moves
    # x: 637 calls here, where a check against F(m-1) alone made 1,585.
    moves, chunks = [], 0

    def counting(x, y, rest, f0, f1, inv, p):
        found = _settle(x, y, rest, f0, f1, inv, p)
        if found[0] != x:
            moves.append(abs(found[0] - x))
        return found
    monkeypatch.setattr(zeckendorf, "_settle", counting)
    rng = random.Random(16)
    for _ in range(300):
        n = rng.randrange(fib(_B))
        chunks += _top_index(n) // 64
        assert fib_rep(n) == greedy_rep(n)
    assert max(moves) == 1
    assert 0.05 * chunks < len(moves) < 0.2 * chunks


def test_settle_and_leaf_counts_on_10k_digit_words(monkeypatch):
    # Counters, not times: each _settle call is an estimate that had to
    # move, and each _peel call a leaf.  A word of 10,000 digits is cut at
    # 8,192 and 4,096 digits into three leaves.  The alternating word
    # F(10000) - 1, whose float estimates in 1,024-digit leaves were one
    # low at 119 of its 157 chunks, settles at most once; eight random
    # words settle at most one chunk in six (161 of 1,256 chunks here; 225
    # with float estimates in 1,024-digit leaves, 232 with no guard bits in
    # the leaf's T).  An estimate within one of
    # the answer leaves n - S(x) in [-F(m), 2·F(m)), checked first, so a
    # far estimate fails here instead of stepping for hours.
    settles, leaves = [], []
    peel = zeckendorf._peel

    def counting_settle(x, y, rest, f0, f1, inv, p):
        assert -f0 <= rest < 2 * f0
        settles.append(p)
        return _settle(x, y, rest, f0, f1, inv, p)

    def counting_peel(n):
        leaves.append(n)
        return peel(n)
    monkeypatch.setattr(zeckendorf, "_settle", counting_settle)
    monkeypatch.setattr(zeckendorf, "_peel", counting_peel)
    assert fib_rep(fib(10000) - 1) == "10" * 5000
    assert len(settles) <= 1 and len(leaves) == 3
    settles.clear()
    leaves.clear()
    rng = random.Random(31)
    for _ in range(8):
        n = rng.randrange(fib(9999), fib(10000))
        assert fib_value(fib_rep(n)) == n
    assert len(leaves) == 8 * 3
    assert len(settles) <= 8 * -(-10000 // 64) // 6


def test_settle_steps_exhaustively():
    # At each cut m, from the true x + d for |d| <= 3 (x + d >= 0), for
    # every n < F(2m): the start sits up to three steps of F(m) or F(m-1)
    # above or below the answer.
    for m in range(2, 13):
        f0, f1, f2 = own_fib(m), own_fib(m - 1), own_fib(m - 2)

        def s_of(x):
            return f1 * x + f2 * div_phi_oracle(x + 1)
        x, steps = 0, set()
        for n in range(own_fib(2 * m)):
            while s_of(x + 1) <= n:  # brute force: the greatest x with S(x) <= n
                steps.add(s_of(x + 1) - s_of(x))
                x += 1
            rest = n - s_of(x)
            for d in range(-3, 4):
                if x + d >= 0:
                    start = settle_from(0, 0, n, f0, f1, x + d)  # from S(0) = 0
                    assert _settle(*start, f0, f1, _INV_PHI, 128) == (x, rest), (m, n, d)
        assert steps == {f0, f1}, m
    # From the last n at m = 12, x > 200: a start _SETTLE_STEPS steps away
    # still settles, one more step away is a broken estimate and raises.
    for d in (-_SETTLE_STEPS - 1, -_SETTLE_STEPS, _SETTLE_STEPS, _SETTLE_STEPS + 1):
        start = settle_from(0, 0, n, f0, f1, x + d)
        if abs(d) > _SETTLE_STEPS:
            with pytest.raises(RuntimeError, match="steps away"):
                _settle(*start, f0, f1, _INV_PHI, 128)
        else:
            assert _settle(*start, f0, f1, _INV_PHI, 128) == (x, rest), d


# The child's own peak memory in kB, printed last.  ru_maxrss also counts
# the test runner's pages at the fork on Linux, so read this image's own
# peak where the kernel reports it.
PEAK = """
import resource
try:
    with open("/proc/self/status") as status:
        print(next(line.split()[1] for line in status if line.startswith("VmHWM")))
except OSError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

BIG_CONVERSIONS = """
from fibc import fibonacci
from fibc.complement import fibc_rep
from fibc.fibonacci import fib, fib_value, fibc_value
from fibc.zeckendorf import fib_rep

n = 10**20000
w, v = fib_rep(n), fibc_rep(-n)
assert fib_value(w) == n and fibc_value(v) == -n
assert fib(30000) == fib_value("1" + "0" * 30000)
print(len(w), len(v), len(fibonacci._FIBS))
""" + PEAK


def run_child(script, timeout):
    """The ints a child Python prints, run on this checkout's package."""
    src = Path(fibonacci.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", script], cwd=src,
                         capture_output=True, text=True, timeout=timeout, check=True)
    return map(int, out.stdout.split())


def test_conversions_at_20000_digits_stay_small():
    # Both conversions of 10^20000, both words valued back and F(30000)
    # keep the shared list within its cap F(_B): a list kept to the length
    # of the word would hold 95,700 entries, and a greedy that keeps every
    # F(i) up to n about 380 MB.
    rep_len, neg_len, cache_len, peak_kb = run_child(BIG_CONVERSIONS, 120)
    assert (rep_len, neg_len) == (95700, 95703)
    assert cache_len <= _B + 1
    assert peak_kb < 50 * 1024


HUGE_ROUND_TRIP = """
from fibc.complement import fibc_rep
from fibc.fibonacci import fib_value, fibc_value
from fibc.zeckendorf import fib_rep

n = 10**100000
w = fib_rep(n)
assert fib_value(w) == n
for m in (n, -n):
    assert fibc_value(fibc_rep(m)) == m
print(len(w))
""" + PEAK


def test_round_trip_at_100000_decimal_digits():
    # 10^100000 and its negative, through words of about 478,500 digits
    # valued at cuts of 1024 to 262,144 digits, in bounded memory.
    rep_len, peak_kb = run_child(HUGE_ROUND_TRIP, 60)
    assert rep_len == 478497
    assert peak_kb < 50 * 1024


def test_round_trip_on_integers():
    for n in range(100001):
        assert fib_value(fib_rep(n)) == n


def test_round_trip_on_words():
    count = 0
    for w in canonical_words(20):
        count += 1
        assert fib_rep(fib_value(w)) == w
    assert count == fib(20)  # words of length <= 20 represent [0, F(20))


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
    """Rewrite 011 -> 100 from the left, each rewrite cascading leftward:
    the reference for the slow families that does not go through the
    value, as _normalize_binary does after its rounds."""
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
    # Either side of the switch to the int round trip, against it and
    # against the cascade, which does not go through the value.
    for family in FAMILIES:
        for k in range(1, 3 * _ROUNDS + 1):
            w = family(k)
            assert _normalize_binary(w) == fib_rep(fib_value(w)) == cascade_oracle(w)


def test_normalize_binary_slow_families_at_1e5_digits():
    for family, k in zip(FAMILIES, SIZES):
        w = family(k)
        assert _normalize_binary(w) == cascade_oracle(w)


adder_outputs = st.one_of(
    ternary_words().map(lambda t: berstel_adder().run(t)),
    st.tuples(complement_words(), complement_words()).map(
        lambda uv: complement_adder().run(sum_words(*uv))))


@st.composite
def long_words_without_11(draw):
    # Already canonical but for leading zeros: the words _normalize_binary
    # returns without a round, which random bits almost never give.
    k = draw(st.integers(1000, 12000))
    w = no_11(format(draw(st.integers(0, 2**k - 1)), "b").zfill(k))
    return "0" * draw(st.integers(0, 3)) + w


@settings(deadline=None, max_examples=150)
@given(st.one_of(binary_words(), adder_outputs, long_words_without_11()))
def test_normalize_binary_matches_int_oracle_on_long_words(w):
    assert _normalize_binary(w) == fib_rep(fib_value(w))


def test_cascade_runs_only_past_the_rounds(monkeypatch):
    # The slow words, whose carries cascade past _ROUNDS rounds, and only
    # they, are converted through their value.
    calls = []
    value = zeckendorf.fib_value

    def counting(w):
        calls.append(len(w))
        return value(w)

    monkeypatch.setattr(zeckendorf, "fib_value", counting)
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
    # cache just large enough and with one grown by fib(20000), which fills
    # it toward its cap F(_B) and builds the rest from pairs: a scan from the
    # top of the cache would differ by ~_B reads, bisect by O(log).
    # Only fibonacci binds the list, so patching it there reaches every read.
    for info in pkgutil.iter_modules(fibc.__path__):
        module = importlib.import_module(f"fibc.{info.name}")
        assert module is fibonacci or not hasattr(module, "_FIBS"), info.name

    def reads(call, grow):
        fibs = CountingList([1, 2])
        monkeypatch.setattr(fibonacci, "_FIBS", fibs)
        call()  # grows the cache as far as the call itself needs
        if grow:
            fib(20000)
        fibs.reads = 0
        call()
        return fibs.reads

    bound = 2 * (20000).bit_length()
    # Negative fibc_rep reads its F(j) from the cache; fib_rep, once its
    # tables are built, reads nothing there, however large the cache.
    for call, reads_cache in ((lambda: fib_rep(10**12), False),
                              (lambda: fibc_rep(-(10**12)), True),
                              (lambda: fibc_rep(-(10**6)), True)):
        fresh, grown = reads(call, False), reads(call, True)
        assert (fresh > 0) == reads_cache
        assert abs(grown - fresh) <= bound
