"""Canonical Zeckendorf representations of the nonnegative integers.

A canonical word has no "11" factor and no leading zero; the empty word
represents 0.  fib_rep and fib_value are mutually inverse between canonical
words and the nonnegative integers, and fib_rep is increasing for the radix
order (shorter first, then lexicographic).

fib_rep writes the digits at positions 32 and up by the greedy algorithm and
reads the low 32 from a table of the Zeckendorf words below F(16), built on
first use: an n below F(32) costs one bisect and two table reads.

normalize_fib rewrites 011 -> 100 in rounds of big-int operations, every
occurrence at once, and finishes a slow word by a linear leftward cascade.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache

from .fibonacci import _FIBS, _check_word, _extend_to_value, fib

_LOW = 16  # digits per table word; the table covers the low 2 * _LOW digits
_ROUNDS = 24  # bit-parallel rounds of _normalize_binary before the cascade


@cache
def _low_table() -> tuple[list[str], list[int], int]:
    """The Zeckendorf words below F(_LOW) in value order (so words[v] has
    value v), the value of each followed by _LOW zeros, and F(2 * _LOW).

    The words of length k are "1" + w.zfill(k - 1) for the F(k - 2) words w
    below F(k - 2).  Built from this recurrence alone, not from fib_rep or
    complement._no_11_words: the round-trip and order checks compare
    those with each other, which a shared source would make circular.
    """
    words, shifted = [""], [0]
    for k in range(1, _LOW + 1):
        m = fib(k - 2)
        words += ["1" + w.zfill(k - 1) for w in words[:m]]
        shifted += [fib(k - 1 + _LOW) + s for s in shifted[:m]]
    return words, shifted, fib(2 * _LOW)


def _low_rep(n: int, words: list[str], shifted: list[int]) -> str:
    """Zeckendorf word of 0 <= n < F(2 * _LOW), from the table."""
    if n < len(words):
        return words[n]
    # The high half is the greatest table word whose shifted value fits.
    i = bisect_right(shifted, n) - 1
    return words[i] + words[n - shifted[i]].zfill(_LOW)


def fib_rep(n: int) -> str:
    """Canonical Fibonacci word of a nonnegative integer, by the greedy
    algorithm (repeatedly subtract the largest Fibonacci number that fits)
    down to position 2 * _LOW, and a table lookup for the digits below it.

    >>> fib_rep(0)
    ''
    >>> fib_rep(20)
    '101010'
    """
    if n < 0:
        raise ValueError(f"no Fibonacci representation for negative {n}")
    words, shifted, top = _low_table()
    if n < top:
        return _low_rep(n, words, shifted)
    _extend_to_value(n)
    k = bisect_right(_FIBS, n) - 1
    digits = []
    append = digits.append
    rem = n
    for f in _FIBS[k : 2 * _LOW - 1 : -1]:
        if f <= rem:
            rem -= f
            append("1")
        else:
            append("0")
    digits.append(_low_rep(rem, words, shifted).zfill(2 * _LOW))
    return "".join(digits)


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
    if len(u) != len(v):
        return -1 if len(u) < len(v) else 1
    if u == v:
        return 0
    return -1 if u < v else 1


def normalize_fib(w: str) -> str:
    """Canonical word with the same Fibonacci value as a ternary word.

    Binary words are rewritten 011 -> 100 on an int, every occurrence at
    once per round (see _normalize_binary); a word with a 2 is first run
    through the plain adder, which returns a binary word of the same value.
    Linear in the length of w.

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

    Rewrites every 011 -> 100 at once (F(j+2) = F(j+1) + F(j)) on the int
    whose bit j weighs F(j): occurrences never share a digit, so * 7 flips
    three disjoint bits for each.  A run of k ones takes about k/2 rounds,
    so after _ROUNDS rounds the linear _cascade finishes the word.
    """
    x = int(w or "0", 2)
    for _ in range(_ROUNDS):
        pairs = x & (x >> 1)
        if not pairs:
            return format(x, "b") if x else ""
        x ^= (pairs & ~(x >> 2)) * 7
    return _cascade(format(x, "b"))


def _cascade(w: str) -> str:
    """Canonical word with the same Fibonacci value as a binary word.

    Rewrites 011 -> 100 from the left: the first 11 factor is always
    preceded by a 0, and the rewrite can only create a new 11 to its left,
    so each rewrite cascades leftward until the prefix is 11-free, then the
    scan jumps to the next 11.  Every rewrite removes a 1, so the work is
    linear.  One guard 0 in front suffices: the value of a length-k word is
    below F(k+1).
    """
    b = bytearray(b"0")
    b += w.encode()
    i = b.find(b"11")
    while i > 0:  # never 0, by the guard
        b[i - 1 : i + 2] = b"100"
        j = i - 2
        while j > 0 and b[j] == 49:  # the new 1 at j+1 made an 11 at j
            b[j - 1 : j + 2] = b"100"
            j -= 2
        i = b.find(b"11", i + 1)
    return b.lstrip(b"0").decode()
