"""Output oracle for the benchmark, independent of the fibc package.

It keeps its own Fibonacci list (F(0) = 1, F(1) = 2) and its own value maps
and language tests for both numeration systems, so a defect in fibc cannot
hide itself by also corrupting the check.

* Zeckendorf words: binary, no "11" factor, no leading "0"; the empty word
  is 0.
* Complement words: binary, odd length, no "11" factor, no "000" or "101"
  prefix; the value is the Fibonacci value minus w[0] * F(len(w)).

A word in the right language with the right value is the one correct
answer, because each language represents every integer exactly once.
"""

from __future__ import annotations

_FIBS = [1, 2]


def fib(i: int) -> int:
    """F(i) for i >= 0, grown on demand."""
    while len(_FIBS) <= i:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return _FIBS[i]


def value(w: str) -> int:
    """Fibonacci value of a binary word: the digit j places from the right
    weighs F(j)."""
    if len(w) > len(_FIBS):
        fib(len(w))
    fibs = _FIBS
    last = len(w) - 1
    return sum(fibs[last - i] for i, c in enumerate(w) if c == "1")


def signed_value(w: str) -> int:
    """Complement value of a nonempty binary word."""
    return value(w) - (fib(len(w)) if w[0] == "1" else 0)


def _binary(w: str) -> bool:
    return not w.strip("01")


def is_zeckendorf(w: str) -> bool:
    return _binary(w) and "11" not in w and not w.startswith("0")


def is_complement(w: str) -> bool:
    return (_binary(w) and len(w) % 2 == 1 and "11" not in w
            and not w.startswith(("000", "101")))


def check_fib_sum(m: int, n: int, w: object) -> bool:
    """True iff w is the canonical Zeckendorf word of m + n."""
    return isinstance(w, str) and is_zeckendorf(w) and value(w) == m + n


def check_fibc_sum(m: int, n: int, w: object) -> bool:
    """True iff w is the canonical complement word of m + n."""
    return isinstance(w, str) and is_complement(w) and signed_value(w) == m + n
