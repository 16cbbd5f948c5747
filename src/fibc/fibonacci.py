"""Fibonacci numbers and the value maps of three positional numeration systems.

Words are ASCII strings over "0", "1", "2", most significant digit first;
the empty string is the empty word.  All arithmetic is exact (Python ints).

The Fibonacci sequence used throughout starts F(0) = 1, F(1) = 2, the usual
convention for Fibonacci numeration, and extends backwards to F(-1) = 1 and
F(-2) = 0.
"""

from __future__ import annotations

import threading

_FIBS = [1, 2]  # _FIBS[i] == F(i) for i >= 0; grown on demand under _LOCK
_LOCK = threading.Lock()


def _extend_to_index(i: int) -> None:
    if i < len(_FIBS):
        return
    with _LOCK:
        while len(_FIBS) <= i:
            _FIBS.append(_FIBS[-1] + _FIBS[-2])


def fib(i: int) -> int:
    """Return F(i) with F(0) = 1, F(1) = 2; defined down to F(-2) = 0.

    >>> [fib(i) for i in range(-2, 8)]
    [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    """
    if i < -2:
        raise ValueError(f"Fibonacci index {i} out of range (must be >= -2)")
    if i == -1:
        return 1
    if i == -2:
        return 0
    _extend_to_index(i)
    return _FIBS[i]


_DROP = {alphabet: str.maketrans("", "", alphabet) for alphabet in ("01", "012")}


def _check_word(w: str, alphabet: str, what: str) -> None:
    bad = w.translate(_DROP[alphabet])  # what is left is invalid
    if bad:
        raise ValueError(f"invalid digit {bad[0]!r} in {what} word {w!r}")


def fib_value(w: str) -> int:
    """Value of a digit word with Fibonacci weights: the digit j places from
    the right weighs F(j).  Digits may be 0, 1 or 2; the empty word is 0.

    >>> fib_value("101010")
    20
    """
    _check_word(w, "012", "ternary")
    if not w:
        return 0
    _extend_to_index(len(w) - 1)
    total = 0
    for i, c in enumerate(reversed(w)):
        if c != "0":
            total += (ord(c) - 48) * _FIBS[i]
    return total


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
    if n >= 0:
        return "0" if n == 0 else "0" + bin(n)[2:]
    k = (-n - 1).bit_length() + 1  # least k >= 1 with -2**(k-1) <= n
    if k == 1:
        return "1"
    return "1" + format(n + (1 << (k - 1)), f"0{k - 1}b")
