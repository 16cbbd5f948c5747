"""Canonical Zeckendorf representations of the nonnegative integers.

A canonical word has no "11" factor and no leading zero; the empty word
represents 0.  fib_rep and fib_value are mutually inverse between canonical
words and the nonnegative integers, and fib_rep is increasing for the radix
order (shorter first, then lexicographic).

fib_rep reads an n below F(32) as two 16-digit blocks from _low_table: the
Zeckendorf words below F(16) and their values with 16 zeros appended.
Larger n are cut in two, divide and conquer.  A word hi·lo whose part lo
has m digits has the value F(m-1)·V(hi) + F(m-2)·V'(hi) + V(lo), where V'
weighs digit j by F(j-1), and V'(hi) = floor((x+1)/phi) for the Zeckendorf
word hi of value x.  So the high part of n is the greatest x with

    S_m(x) = F(m-1)·x + F(m-2)·floor((x+1)/phi) <= n,

and the low part is the word of n - S_m(x) < F(m), padded to m digits.
Above F(_LEAF) the cuts fall at m = _B·2^j >= _LEAF; below it, every 64
digits (_peel, from _leaf_table).  The chunk values of all the leaves are
read in one pass over a single int with a 64-bit field per chunk, each
chunk as four 16-digit blocks (_read_chunks, from _low_table).  Every cut
takes the estimate x = (n >> s)·K >> c, with s and c fixed per cut and K
~ 2^(s+c)·phi^-m from the one builder _recip, and keeps it when 0 <= n - S(x)
< S(x+1) - S(x), which is F(m) or F(m-1); otherwise _settle steps x by
one until that holds, so no result depends on the estimate's accuracy.
Upper-cut constants are kept per cut and per m/16 digits of the top.
The blocks are read by S_p(a), the same identity at m = p.  Every table
is built on first use.

normalize_fib returns a binary word without 11 as it is, less its
leading zeros: no int is built for it.  About half the adder outputs
on words of up to 11 digits have no 11, an eighth to a sixth on 30-digit
words, and almost none on long ones.  Any other word it rewrites
011 -> 100 in rounds of big-int operations, every occurrence at once,
and converts a word still not canonical after them through its value:
fib_value, split at the same cuts, then fib_rep.
"""

from __future__ import annotations

from functools import cache
from math import isqrt
from operator import index, itemgetter
from struct import pack, unpack

from .fibonacci import _B, _check_word, _fib_pair, fib, fib_value

_LOW = 16  # digits per table block; below F(2 * _LOW) a word is two blocks
_CHUNK = 4 * _LOW  # digits per leaf chunk; F(_CHUNK) < 2**45, see _peel
_LEAF = 4 * _B  # digits below which a part is one leaf, cut every _CHUNK digits
_ROUNDS = 24  # bit-parallel rounds of _normalize_binary before the int round trip
_SETTLE_STEPS = 16  # most steps _settle takes; the estimates need at most 2


@cache
def _inv_phi(p: int) -> int:  # floor(2^p / phi) = floor((sqrt(5)·2^p - 2^p) / 2)
    return (isqrt(5 << 2 * p) - (1 << p)) >> 1


# (a * _INV_PHI) >> 128 is floor(a / phi) for every a <= F(_CHUNK) + 2 < 2**46:
# a·_INV_PHI / 2^128 is below a/phi by less than a·2^-128 < 2^-82, while a/phi
# is at least 1/(y + a·phi) > 2^-48 above y = floor(a/phi), as
# (a/phi - y)(y + a·phi) = a^2 - a·y - y^2 is a nonzero integer for a > 0.
_INV_PHI = _inv_phi(128)


def _recip(f1: int, f2: int, t: int, p: int) -> int:
    """K = floor(2^(t+p) / D), the 2^t·phi^-m of every cut, for
    D = F(m-1)·2^p + F(m-2)·floor(2^p/phi), f1 = F(m-1), f2 = F(m-2), m >= 1.

    As phi^m = F(m-1) + F(m-2)/phi, D is in (2^p·phi^m - F(m-2),
    2^p·phi^m], and F(m-2) < phi^m, so K·2^-t is above phi^-m - 2^-t and
    below phi^-m / (1 - 2^-p) <= phi^-m·(1 + 2^(1-p)).
    """
    return (1 << t + p) // ((f1 << p) + f2 * _inv_phi(p))


def _cut(f1: int, f2: int, top: int, p: int) -> tuple[int, int, int, int, int, int]:
    """F(m), F(m-1) = f1, F(m-2) = f2, K = _recip(f1, f2, s + c, p), s and c
    of the cut at m for n < F(top), with F(top) < 2^(s+c-8), K < 2^(c-8).

    If F(top) < F(m-1)·2^(p-10), x = (n >> s)·K >> c is floor(n·phi^-m - d)
    for a d in (-2^-9, 2^-7): by _recip, n·K·2^-(s+c) is below n·phi^-m by
    less than n·2^-(s+c) < 2^-8 and above it by less than
    n·phi^-m·2^(1-p) < 2^-9, as phi^m > F(m-1); the s bits dropped from n
    weigh less than K·2^-c < 2^-8.  s + c is 9 bits over a length bound,
    F(top) < 1.171·phi^top < 2^(0.69425·top + 0.23): F(top) is not built.
    """
    t = top * 6943 // 10000 + 10
    k = _recip(f1, f2, t, p)
    c = k.bit_length() + 8
    return f1 + f2, f1, f2, k, t - c, c


@cache
def _low_table() -> tuple[tuple[str, ...], tuple[str, ...], tuple[int, ...],
                          tuple[tuple[int, int, int], ...]]:
    """The 16-digit block table of fib_rep and _read_chunks: the Zeckendorf
    words below F(_LOW) in value order (so words[v] has value v) and the
    same zero-padded to _LOW digits; the values S_p(a) = V(a·0^p) of the
    block words a followed by p = _LOW zeros, then the sentinel
    F(2·_LOW) = S_p(F(_LOW)), each floor exact as a + 1 < F(_CHUNK) + 2;
    and F(p-1), F(p-2), K = _recip(F(p-1), F(p-2), 50, 128) of _read_chunks
    for p = 3·_LOW, 2·_LOW, _LOW.

    The words of length k are "1" + w.zfill(k - 1) for the F(k - 2) words w
    below F(k - 2).  Built from this recurrence alone, not from fib_rep or
    complement._no_11_words: the round-trip and order checks compare
    those with each other, which a shared source would make circular.
    """
    words = [""]
    for k in range(1, _LOW + 1):
        words += ["1" + w.zfill(k - 1) for w in words[: fib(k - 2)]]
    levels = tuple((f1, f2, _recip(f1, f2, 50, 128))
                   for f2, f1 in map(_fib_pair, (3 * _LOW - 1, 2 * _LOW - 1, _LOW - 1)))
    f1, f2, _ = levels[-1]
    shifted = tuple(f1 * a + f2 * ((a + 1) * _INV_PHI >> 128) for a in range(len(words) + 1))
    return tuple(words), tuple(w.zfill(_LOW) for w in words), shifted, levels


def fib_rep(n: int) -> str:
    """Canonical Fibonacci word of a nonnegative integer: from a table below
    F(2 * _LOW), else by divide and conquer (see the module docstring).

    >>> fib_rep(0)
    ''
    >>> fib_rep(20)
    '101010'
    """
    n = index(n)
    if n < 0:
        raise ValueError(f"no Fibonacci representation for negative {n}")
    words, padded, shifted, levels = _low_table()
    if n < len(words):
        return words[n]
    if n >= shifted[-1]:
        return _rep(n)
    # n = V(a·0^p) + r with p = _LOW, r < F(p) and V(a·0^p) = a·phi^p +
    # F(p-2)·d for a d in (-0.382, 0.618], so n·phi^-p - a lies in
    # (-0.172, 1.448), as F(p-2) < 0.448·phi^p and F(p) < 1.171·phi^p, at
    # every cut.  As in _read_chunks' level p = _LOW, E is a or a + 1, and
    # one comparison with S_p(E) decides.
    a = (n * levels[-1][2] + (1 << 49)) >> 50
    a -= n < shifted[a]
    return words[a] + padded[n - shifted[a]]


def _top_index(n: int) -> int:
    """An index t >= the top digit's of fib_rep(n), at most 2 above it below
    F(3000): t + 1 > 1.4405·b >= log_phi(2)·b for b = n.bit_length(), so
    F(t+1) >= phi^(t+1) > 2^b > n."""
    return n.bit_length() * 14405 // 10000


def _rep(n: int) -> str:
    """fib_rep for any n >= 0, without the sign check: the chunks of the
    word (see _split) read in one pass.  A cut above the top digit leaves
    an empty top chunk, whose zeros the lstrip drops."""
    chunks: list[int] = []
    _split(n, 0, chunks)
    return _read_chunks(chunks).lstrip("0")


def _split(n: int, size: int, chunks: list[int]) -> None:
    """Append to chunks the _CHUNK-digit chunk values of the word of n,
    most significant first, after as many zero chunks as bring them to
    size (none when size is 0, for the top of the word).

    An upper cut estimates and tests x as a leaf does (see _peel), reading
    floor((x+2)/phi) from the product for x + 1 plus inv.
    """
    limit, _ = _leaf_table()
    if n < limit:
        peeled = _peel(n)
        chunks += [0] * (size - len(peeled))
        chunks += peeled
        return
    # Cut at the greatest m = _B·2^j <= _top_index(n), halved if F(m) > n.
    # n < F(top) for top rounded up to a sixteenth of m: 16 tops per cut.
    top = _top_index(n) + 1
    j = ((top - 1) // _B).bit_length() - 1
    top += -top % (_B << j >> 4)
    if _cut_point(j, top)[0] > n:
        j, top = j - 1, _B << j
    f0, f1, f2, scale, s, c, inv, p = _cut_point(j, top)
    x = (n >> s) * scale >> c
    t = (x + 1) * inv
    y = _div_phi(x + 1, t, p)
    n -= f1 * x + f2 * y
    if n < 0 or n >= f1 and (n >= f0 or _div_phi(x + 2, t + inv, p) == y):
        x, n = _settle(x, y, n, f0, f1, inv, p)
    low = (_B << j) // _CHUNK
    _split(x, size - low, chunks)
    _split(n, low, chunks)


def _peel(n: int) -> list[int]:
    """Values of the chunks of 0 <= n < F(_LEAF) cut every _CHUNK digits
    below _top_index(n), most significant first: each below F(_CHUNK), and
    at most _LEAF / _CHUNK of them, as the table stops below _LEAF.

    At the cut m, n < F(m + _CHUNK), and the estimate x = (n >> s)·K >> c
    from _leaf_table is floor(n·phi^-m - d) for a d in (-2^-9, 2^-7), by
    _cut.  It is kept when 0 <= n - S(x) < S(x+1) - S(x), which is F(m) if
    floor((x+2)/phi) > y and F(m-1) otherwise, checked exactly with
    _INV_PHI (the floor only when F(m-1) <= n - S(x) < F(m)), and settled
    by _settle otherwise.
    """
    chunks = []
    _, cuts = _leaf_table()
    for f0, f1, f2, scale, s, c in reversed(cuts[: _top_index(n) // _CHUNK]):
        x = (n >> s) * scale >> c
        y = (x + 1) * _INV_PHI >> 128
        n -= f1 * x + f2 * y
        if n < 0 or n >= f1 and (n >= f0 or (x + 2) * _INV_PHI >> 128 == y):
            x, n = _settle(x, y, n, f0, f1, _INV_PHI, 128)
        chunks.append(x)
    chunks.append(n)
    return chunks


def _read_chunks(chunks: list[int]) -> str:
    """The digits of chunk values below F(_CHUNK), each zero-padded to
    _CHUNK digits, read in one pass over one int with a 64-bit field per
    chunk.  For p = 48, 32, 16 each field x < F(p + 16) gets the greatest
    block a with S_p(a) = V(a·0^p) <= x by operations on the whole int:
    - E = (x·K + 2^49) >> 50, masked to 14 bits, is x·K/2^50 rounded, with
      K (scale) from _recip at t = 50, p = 128 within one of 2^50·phi^-p,
      so x·K/2^50 is within x·2^-50 < 0.025 of x·phi^-p, x·K/2^50 - a is
      in (-0.2, 1.5) by the bound in fib_rep, E is a or a + 1, and
      E <= F(_LOW) < 2^12;
    - S = F(p-1)·E + F(p-2)·floor((E+1)/phi) = S_p(E), the floor taken as
      (E+1)·floor(2^40/phi) >> 40, exact for E < 2^13 by the proof above
      _INV_PHI;
    - G, bit 62 of x - S + 2^62, is 1 exactly when S <= x, so A =
      E - 1 + G is a (E = 0 only if a = 0 and S = 0), and x - S_p(A) < F(p)
      is the next x.
    No field reaches 2^63, so no carry or borrow crosses fields and each
    mask keeps one field's bits: x·K + 2^49 < 2^62 (about 2^61.3 at
    x = F(p + 16) - 1), so after the shift by 50 the next field starts at
    bit 14 and the mask has at most 14 bits; (E+1)·floor(2^40/phi) < 2^51;
    and x and S <= S_p(F(_LOW)) = F(p + 16) are at most F(64) < 2^45, so
    x - S + 2^62 is in (2^62 - 2^45, 2^62 + 2^45).  The three A and the
    last x, 16 bits each, fill a field exactly and index the padded block
    words of _low_table, the one table it reads.
    """
    k = len(chunks)
    x = int.from_bytes(pack(">" + "Q" * k, *chunks), "big")
    ones = int.from_bytes((bytes(7) + b"\1") * k, "big")
    mask, half, bias = ones * 0x3FFF, ones << 49, ones << 62
    inv = _INV_PHI >> 88  # floor(2^40 / phi)
    _, padded, _, levels = _low_table()
    q = 0
    for f1, f2, scale in levels:
        e = (x * scale + half) >> 50 & mask
        g = (x - f1 * e - f2 * ((e + ones) * inv >> 40 & mask) + bias) >> 62 & ones
        a = e + g - ones
        x -= f1 * a + f2 * ((e + g) * inv >> 40 & mask)
        q = (q << 16) + a
    q = (q << 16) + x
    blocks = itemgetter(*unpack(">" + "4H" * k, q.to_bytes(8 * k, "big")))
    return "".join(blocks(padded))


@cache
def _leaf_table() -> tuple[int, tuple[tuple[int, int, int, int, int, int], ...]]:
    """F(_LEAF), and the _cut constants of the leaf cuts m = _CHUNK,
    2·_CHUNK, ... below _LEAF for n < F(m + _CHUNK), with p = 128, each
    pair F(m-1), F(m) stepped to the next by F(i+c) = F(c-1)·F(i) +
    F(c-2)·F(i-1) at c = _CHUNK: four products of ints below F(_CHUNK).
    """
    c2, c1 = _fib_pair(_CHUNK - 1)
    f1, f0 = _fib_pair(_CHUNK)
    cuts = []
    for m in range(_CHUNK, _LEAF, _CHUNK):
        cuts.append(_cut(f1, f0 - f1, m + _CHUNK, 128))
        f1, f0 = (c1 - c2) * f1 + c2 * f0, c2 * f1 + c1 * f0  # at the next cut
    return f0, tuple(cuts)


def _settle(x: int, y: int, rest: int, f0: int, f1: int, inv: int, p: int) -> tuple[int, int]:
    """The greatest x with S(x) <= n at the cut m, and n - S(x), stepped to
    from an estimate x >= 0 with y = floor((x+1)/phi) and rest = n - S(x);
    f0, f1 are F(m), F(m-1), and inv = floor(2^p / phi), p bits more than x
    has.  S(x+1) - S(x) is F(m) or F(m-1), as floor((x+2)/phi) exceeds y or
    not, so a step costs one _div_phi and one addition, no product with F.

    The estimates of _peel and _split are within 2 of the answer: n·phi^-m
    is within 1.5 of it by the bound in fib_rep, which holds at every cut,
    and each estimate is within 2^-7 of n·phi^-m.  So a start more than
    _SETTLE_STEPS steps away is a broken estimate, and _settle raises
    RuntimeError rather than step on in time linear in the error.
    """
    steps = 0  # counted in each loop: one loop for both ways costs more per call
    while rest < 0:  # S(0) = 0 <= n, so x stays >= 0
        if steps == _SETTLE_STEPS:
            raise RuntimeError(f"cut estimate more than {_SETTLE_STEPS} steps away")
        z = _div_phi(x, x * inv, p)
        x, y, rest = x - 1, z, rest + (f0 if z < y else f1)
        steps += 1
    while rest >= f1:
        z = _div_phi(x + 2, (x + 2) * inv, p)
        if z > y and rest < f0:
            break
        if steps == _SETTLE_STEPS:
            raise RuntimeError(f"cut estimate more than {_SETTLE_STEPS} steps away")
        x, y, rest = x + 1, z, rest - (f0 if z > y else f1)
        steps += 1
    return x, rest


def _div_phi(a: int, t: int, p: int) -> int:
    """floor(a / phi) for a >= 0, given t = a·inv, inv = floor(2^p / phi).

    a/phi lies in [t, t + a) / 2^p, so its floor is at least t >> p and at
    most (t + a) >> p, which almost always agree.  Between them,
    y + 1 <= a/phi exactly when a^2 >= (y+1)·(a + y + 1), as
    a^2 - a·z - z^2 = -(z - a/phi)(z + a·phi) for every z.
    """
    y = t >> p
    while y < (t + a) >> p and a * a >= (y + 1) * (a + y + 1):
        y += 1
    return y


@cache
def _cut_point(j: int, top: int) -> tuple[int, int, int, int, int, int, int, int]:
    """The _cut constants of the cut at m = _B·2^j for n < F(top), then
    inv = floor(2^p / phi) and p, 74 bits over the length bound of F(top - m),
    which the high part is below: K and 1/phi are sized to it, not to m."""
    m = _B << j
    f2, f1 = _fib_pair(m - 1)
    p = (top - m) * 6943 // 10000 + 74
    return (*_cut(f1, f2, top, p), _inv_phi(p), p)


def is_zeckendorf(w: str) -> bool:
    """True iff the binary word is canonical: no "11" factor, no leading zero.

    >>> is_zeckendorf("10101"), is_zeckendorf("011"), is_zeckendorf("")
    (True, False, True)
    """
    _check_word(w, "01", "binary")
    return "11" not in w and not w.startswith("0")


def cmp_radix(u: str, v: str) -> int:
    """Radix-order comparison: by length, ties broken lexicographically.
    Returns a negative, zero or positive int as u is below, equal or above v.
    """
    a, b = (len(u), u), (len(v), v)
    return (a > b) - (a < b)


def normalize_fib(w: str) -> str:
    """Canonical word with the same Fibonacci value as a ternary word.

    Binary words are rewritten 011 -> 100 on an int, every occurrence at
    once per round (see _normalize_binary); a word with a 2 is first run
    through the plain adder, which returns a binary word of the same value.

    >>> normalize_fib("2")
    '10'
    """
    _check_word(w, "012", "ternary")
    if "2" in w:
        from .adders import berstel_adder  # adders imports this module

        w = berstel_adder().run(w)
    return _normalize_binary(w)


def _normalize_binary(w: str) -> str:
    """Canonical word with the same Fibonacci value as a binary word.

    A word without 11 is canonical but for its leading zeros, and is
    returned without them, with no int built.  Any other word is rewritten
    every 011 -> 100 at once (F(j+2) = F(j+1) + F(j)) on the int whose
    bit j weighs F(j): occurrences never share a digit, so * 7 flips three
    disjoint bits for each.  A run of k ones takes about k/2 rounds, so a
    word still not canonical after _ROUNDS rounds is converted through its
    value instead.
    """
    if "11" not in w:
        return w.lstrip("0")
    x = int(w, 2)
    for _ in range(_ROUNDS):
        pairs = x & (x >> 1)
        if not pairs:
            return format(x, "b") if x else ""
        x ^= (pairs & ~(x >> 2)) * 7
    return _rep(fib_value(format(x, "b")))

