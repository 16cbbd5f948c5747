"""Fibonacci numbers and the value maps of three positional numeration systems.

Words are ASCII strings over "0", "1", "2", most significant digit first;
the empty string is the empty word.  All arithmetic is exact (Python ints).

The Fibonacci sequence used throughout starts F(0) = 1, F(1) = 2, the usual
convention for Fibonacci numeration, and extends backwards to F(-1) = 1 and
F(-2) = 0.
"""

from __future__ import annotations

import _thread
from operator import index

_B = 1024  # list cap, fib_value's leaf size and the base of the cut pairs
_FIBS = [1, 2]  # _FIBS[i] == F(i) for 0 <= i <= _B; grown on demand under _LOCK
_LOCK = _thread.allocate_lock()  # the lock threading.Lock() returns
_CUT_PAIRS: dict[int, tuple[int, int]] = {}  # [m - 1] == _fib_pair(m - 1), cuts m > _B


def fib(i: int) -> int:
    """Return F(i) with F(0) = 1, F(1) = 2; defined down to F(-2) = 0.

    Kept in a list up to F(_B).  Above it, F(i) = F(m-1)·F(i-m) +
    F(m-2)·F(i-m-1) at the greatest cut m = _B·2^j <= i, from the pair kept
    at the cut and _fib_pair(i - m): two multiplications where _fib_pair(i)
    takes four.  At i = 2m - 1 both pairs are the one kept at the cut.

    >>> [fib(i) for i in range(-2, 8)]
    [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    """
    i = index(i)
    if i < -2:
        raise ValueError(f"Fibonacci index {i} out of range (must be >= -2)")
    if i < 0:
        return i + 2  # F(-1) = 1, F(-2) = 0
    if i > _B:
        m = _B << ((i // _B).bit_length() - 1)
        f2, f1 = _fib_pair(m - 1)
        g0, g1 = _fib_pair(i - m)
        return f1 * g1 + f2 * g0
    if i >= len(_FIBS):
        with _LOCK:
            while len(_FIBS) <= i:
                _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return _FIBS[i]


def _fib_pair(k: int) -> tuple[int, int]:
    """F(k-1) and F(k) for k >= 0: from the list up to _B, above it by
    F(m+i) = F(m-1)·F(i) + F(m-2)·F(i-1) at the greatest cut m = _B·2^j <= k.

    The pair at a cut, _fib_pair(m - 1), is kept once built; it is built
    the same way from the cut m/2 and the pair kept there, so one recursion
    builds every pair, and what is kept is bounded by the largest k asked.
    """
    if k <= _B:
        return fib(k - 1), fib(k)
    pair = _CUT_PAIRS.get(k)
    if pair is None:
        m = _B << ((k // _B).bit_length() - 1)
        f2, f1 = _fib_pair(m - 1)
        g0, g1 = _fib_pair(k - m)
        pair = f1 * g0 + f2 * (g1 - g0), f1 * g1 + f2 * g0
        if k == 2 * m - 1:
            _CUT_PAIRS[k] = pair
    return pair


_DROP = {alphabet: str.maketrans("", "", alphabet) for alphabet in ("01", "012")}


def _check_word(w: str, alphabet: str, what: str) -> None:
    bad = w.translate(_DROP[alphabet])  # what is left is invalid
    if bad:
        raise ValueError(f"invalid digit {bad[0]!r} in {what} word {w!r}")


def fib_value(w: str) -> int:
    """Value of a digit word with Fibonacci weights: the digit j places from
    the right weighs F(j).  Digits may be 0, 1 or 2; the empty word is 0.

    Divide and conquer at the cuts of fib_rep, see _values.

    >>> fib_value("101010")
    20
    """
    _check_word(w, "012", "ternary")
    return _values(w)[0]


def _values(w: str) -> tuple[int, int]:
    """V(w) = fib_value(w) and V'(w), which weighs digit j by F(j-1).

    A word of at most _B digits is read from the left: appending a digit d
    maps (V, V') to (V + V' + d, V + d), as F(j+1) = F(j) + F(j-1).  A
    longer one is split w = hi·lo at the greatest cut m = _B·2^j below its
    length, lo of m digits, and F(i+m) = F(m-1)·F(i) + F(m-2)·F(i-1) gives
    V(w) = F(m-1)·V(hi) + F(m-2)·V'(hi) + V(lo) and
    V'(w) = F(m-2)·V(hi) + F(m-3)·V'(hi) + V'(lo).
    """
    if len(w) > _B:
        m = _B << ((len(w) - 1) // _B).bit_length() - 1
        f2, f1 = _fib_pair(m - 1)
        v, v1 = _values(w[:-m])
        lo, lo1 = _values(w[-m:])
        return f1 * v + f2 * v1 + lo, f2 * v + (f1 - f2) * v1 + lo1
    v = v1 = 0
    for c in w:
        if c == "0":
            v, v1 = v + v1, v
        else:
            d = ord(c) - 48
            v, v1 = v + v1 + d, v + d
    return v, v1


def fibc_value(w: str) -> int:
    """Complement value of a nonempty digit word: as fib_value, except the
    leading digit also counts negatively with weight F(k) for a length-k word.

    >>> fibc_value("100")
    -2
    >>> fibc_value("001")
    1
    """
    if not w:
        raise ValueError("complement value of the empty word is undefined")
    lead = ord(w[0]) - 48
    return fib_value(w) - lead * fib(len(w))


def twos_complement_value(w: str) -> int:
    """Two's-complement value of a nonempty binary word: ordinary binary
    value minus 2**k when the leading digit of a length-k word is 1.

    >>> twos_complement_value("10001")
    -15
    """
    if not w:
        raise ValueError("two's-complement value of the empty word is undefined")
    _check_word(w, "01", "binary")
    return int(w, 2) - (1 << len(w) if w[0] == "1" else 0)


def twos_complement_rep(n: int) -> str:
    """Shortest two's-complement word for n: no 00 and no 11 prefix.

    >>> twos_complement_rep(-4)
    '100'
    >>> twos_complement_rep(11)
    '01011'
    """
    n = index(n)
    k = (n if n >= 0 else ~n).bit_length() + 1  # least k: -2**(k-1) <= n < 2**(k-1)
    return format(n & ((1 << k) - 1), f"0{k}b")
