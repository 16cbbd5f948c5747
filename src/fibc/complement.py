"""The Fibonacci's-complement numeration system for the signed integers.

Canonical words form the language of odd-length binary words with no "11"
factor that do not start with "000" or "101".  fibc_rep and fibc_value are
mutually inverse between that language and the integers.  Words starting
with 1 represent the negatives, words starting with 0 the nonnegatives;
"00" and "10" act as value-neutral padding prefixes, which is what makes
equal-length alignment (and hence digit-wise addition) possible.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product
from operator import index

from .fibonacci import _check_word, fib
from .zeckendorf import _normalize_binary, _top_index, fib_rep


def is_canonical(w: str) -> bool:
    """True iff the binary word is a canonical complement representation.

    >>> is_canonical("0010001"), is_canonical("00010"), is_canonical("10")
    (True, False, False)
    """
    _check_word(w, "01", "binary")
    return (len(w) % 2 == 1
            and "11" not in w
            and not w.startswith("000")
            and not w.startswith("101"))


def fibc_rep(n: int) -> str:
    """Canonical complement word of any integer.

    Nonnegative n prefix the Zeckendorf word with "0" or "00" to reach odd
    length.  Negative n are written 1 0...0 z of length j + 2, less its
    leading neutral 10 pairs, with z the Zeckendorf word of F(j) + n for any
    odd j with F(j) >= -n: a larger j only prepends more 10 pairs.

    >>> fibc_rep(0), fibc_rep(-1), fibc_rep(19), fibc_rep(-10)
    ('0', '1', '0101001', '1000100')
    """
    n = index(n)
    if n >= 0:
        return _canonical(fib_rep(n), "0", 0)
    j = (_top_index(-n) + 1) | 1  # F(j) >= F(t+1) > -n
    return _canonical(fib_rep(fib(j) + n), "1", j)


def neutral_prefix(w: str) -> str:
    """The two-digit prefix that pads w without changing its complement
    value: "00" for words starting with 0, "10" for words starting with 1.
    """
    if not w:
        raise ValueError("the empty word has no neutral prefix")
    _check_word(w, "01", "binary")
    return w[0] + "0"


def pad_words(u: str, v: str) -> tuple[str, str]:
    """Pad two canonical words to a common length with their neutral
    prefixes.

    Both words must be canonical (odd length), so the shorter one's deficit
    is even and is filled by whole copies of its neutral prefix.  Values are
    preserved componentwise.

    >>> pad_words("1", "1000101")
    ('1010101', '1000101')
    """
    for w in (u, v):
        if not is_canonical(w):
            raise ValueError(f"cannot pad non-canonical word {w!r}")
    return _pad(u, v)


def _pad(u: str, v: str) -> tuple[str, str]:
    """pad_words without the validation, for words known to be canonical."""
    gap = (len(v) - len(u)) // 2
    if gap > 0:
        return (u[0] + "0") * gap + u, v
    return u, (v[0] + "0") * -gap + v


def sum_words(u: str, v: str) -> str:
    """Digit-wise sum of two canonical words after padding; ternary output.

    >>> sum_words("1", "1000101")
    '2010202'
    """
    return _digit_sum(*pad_words(u, v))


def _digit_sum(u: str, v: str) -> str:
    """Digit-wise sum of two binary words of equal length, for `sum_words`
    and the sum line that `fibc add` prints; the adders read the sum from
    the operands without building it (see `MealyMachine.run`).

    Adds the ASCII codes as one big int each: every byte pair sums to at
    most 98, so no carry crosses a byte, and subtracting one "0" per byte
    leaves the digits 0, 1 and 2.
    """
    k = len(u)
    total = (int.from_bytes(u.encode(), "big") + int.from_bytes(v.encode(), "big")
             - int.from_bytes(b"0" * k, "big"))
    return total.to_bytes(k, "big").decode()


def canonicalize(w: str) -> str:
    """Canonical word with the same complement value as a nonempty binary
    word.  Idempotent on canonical words.

    >>> canonicalize("100110100")
    '1000100'
    """
    if not w:
        raise ValueError("complement value of the empty word is undefined")
    _check_word(w, "01", "binary")
    if w[0] == "1" and len(w) % 2 == 0:
        # Neutral prefixes keep parity, so move to odd length at the same
        # value: past the 10 pairs that a 1 follows, 11s is worth 0s, as
        # F(k-1) + F(k-2) - F(k) = 0, and 100r is worth 1001r (10 is 101).
        i = 0
        while w.startswith("101", i):
            i += 2
        w = "0" + w[i + 2:] if w[i + 1] == "1" else w[i:i + 3] + "1" + w[i + 3:]
    return _canonical(_normalize_binary(w), w[0], len(w))


def _canonical(z: str, lead: str, k: int) -> str:
    """Canonical word of the complement value of a length-k word with first
    digit `lead` and Fibonacci value fib_value(z), z a Zeckendorf word.

    The value is fib_value(z) - F(k) if lead is 1, fib_value(z) otherwise.
    For odd k with lead 1 and len(z) <= k it is negative; the word 1 0...0 z
    of length k+2 has it, less the neutral 10 pairs in front that a 1 follows.
    That word has no 11, so up to its first 00 it alternates 1010...: one
    search for 00 finds where the canonical word starts, one digit before
    it, and a word without 00 is all pairs and its final 1.
    """
    if lead == "1":
        if len(z) <= k:
            w = "1" + z.zfill(k + 1)
            i = w.find("00")
            return w[i - 1:] if i > 0 else "1"
        z = z[1:].lstrip("0")  # the top digit of z weighs F(k)
    return ("00" if len(z) % 2 else "0") + z


def signed_key(w: str) -> tuple[int, int, str]:
    """Sort key for the order under which canonical words sort by the
    integer they represent: 1-leading words (negatives) first in
    reversed-radix order, then 0-leading words (nonnegatives) in radix order.
    """
    if not w:
        raise ValueError("the signed order is defined on nonempty words only")
    if w[0] == "1":
        return (0, -len(w), w)
    return (1, len(w), w)


def cmp_signed(u: str, v: str) -> int:
    """Three-way comparison for the signed word order (see signed_key)."""
    ku, kv = signed_key(u), signed_key(v)
    return (ku > kv) - (ku < kv)


def enumerate_canonical(max_len: int) -> list[str]:
    """All canonical words of length <= max_len (odd), smallest value first.

    The result is the image under fibc_rep of a contiguous integer interval
    containing 0.

    >>> enumerate_canonical(3)
    ['100', '1', '0', '001', '010']
    """
    if max_len < 1 or max_len % 2 == 0:
        raise ValueError(f"max_len must be odd and positive, got {max_len}")
    words = [w for w in _no_11_words(max_len)
             if len(w) % 2 == 1 and not w.startswith(("000", "101"))]
    words.sort(key=signed_key)
    return words


def _words(alphabet: str, max_len: int, min_len: int) -> Iterator[str]:
    """Words over the alphabet with length min_len..max_len, in radix order."""
    for length in range(min_len, max_len + 1):
        yield from map("".join, product(alphabet, repeat=length))


def _no_11_words(max_len: int) -> Iterator[str]:
    """Nonempty binary words without the factor 11, shortest first, grown
    digit by digit so that no word containing 11 is ever built."""
    frontier = ["0", "1"]
    for length in range(1, max_len + 1):
        yield from frontier
        if length < max_len:
            frontier = [w + d for w in frontier for d in "01" if not (w[-1] == d == "1")]
