"""Exhaustive small-instance checks for every property the package rests on.

Each check sweeps a finite domain (word length or integer radius), counts the
instances it looked at, and stops at the first counterexample, which it
reports.  The CLI `verify` subcommand runs the whole battery; tests call the
same functions with the depths they need, and break a law by patching the
function that owns it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import product

from . import adders, complement, derivation, fibonacci, zeckendorf
from .complement import _words


class CheckResult(namedtuple("CheckResult", "name ok checked detail")):
    __slots__ = ()

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        return f"{status} {self.name}: {self.detail} ({self.checked} instances)"


def _sweep(name: str, what: str, *parts: tuple) -> CheckResult:
    """Run the parts in order, counting every case looked at, and stop at
    the first case failing its predicate.  Each part is a triple: the
    domain, the predicate each case must satisfy and the counterexample
    label of a case.  A passing sweep reports `what`."""
    checked = 0
    for cases, holds, label in parts:
        for case in cases:
            checked += 1
            if not holds(case):
                return CheckResult(name, False, checked, f"counterexample {label(case)}")
    return CheckResult(name, True, checked, what)


def _zeckendorf_words(max_len: int) -> Iterator[str]:
    """Nonempty canonical Zeckendorf words, shortest first."""
    return (w for w in complement._no_11_words(max_len) if w[0] == "1")


def _odd(max_len: int) -> int:
    """The largest odd length <= max_len, or 0 if none: canonical words have odd length."""
    return max(max_len if max_len % 2 else max_len - 1, 0)


def _canonical_words(odd: int) -> list[str]:
    """Canonical complement words to the odd length `odd` (none below 1)."""
    return complement.enumerate_canonical(odd) if odd >= 1 else []


def _identities(k: int) -> tuple[bool, bool, bool]:
    """Truth of the three closed-form Fibonacci identities at k:
    sum_{i<2k} (-1)^i F(i) F(2k-i) == -F(2k-2),
    sum_{i<2k} F(i) == F(2k+1) - 2 and sum_{i<2k} F(i)^2 == F(2k-2) F(2k+1)."""
    fib = fibonacci.fib
    m = 2 * k
    return (sum((-1) ** i * fib(i) * fib(m - i) for i in range(m)) == -fib(m - 2),
            sum(fib(i) for i in range(m)) == fib(m + 1) - 2,
            sum(fib(i) ** 2 for i in range(m)) == fib(m - 2) * fib(m + 1))


def identities_check(k_max: int) -> CheckResult:
    """The three identities, evaluated exactly for 1 <= k <= k_max.

    >>> identities_check(10).line()
    'ok   fibonacci identities: three identities exact for k <= 10 (10 instances)'
    """
    return _sweep("fibonacci identities", f"three identities exact for k <= {k_max}",
                  (range(1, k_max + 1), lambda k: all(_identities(k)),
                   lambda k: f"k={k} flags={_identities(k)}"))


def value_relation_check(max_len: int) -> CheckResult:
    """Complement value == Fibonacci value minus leading digit times F(k)."""
    fib, val = fibonacci.fib, fibonacci.fib_value
    return _sweep("complement/Fibonacci value relation", f"binary words to length {max_len}",
                  (_words("01", max_len, 1),
                   lambda w: fibonacci.fibc_value(w) == val(w) - int(w[0]) * fib(len(w)), str))


def twos_prefix_check(max_len: int) -> CheckResult:
    """0 and 1 are neutral prefixes for the two's-complement value."""
    val = fibonacci.twos_complement_value
    return _sweep("two's-complement neutral prefixes", f"suffixes to length {max_len}",
                  (_words("01", max_len, 0),
                   lambda w: all(val(a + a + w) == val(a + w) for a in "01"),
                   lambda w: w or "(empty)"))


def zeckendorf_roundtrip_check(limit: int, max_len: int) -> CheckResult:
    return _sweep(
        "Zeckendorf round trip", f"integers to {limit}, words to length {max_len}",
        (range(limit + 1), lambda n: fibonacci.fib_value(zeckendorf.fib_rep(n)) == n,
         "n={}".format),
        (_zeckendorf_words(max_len),
         lambda w: zeckendorf.fib_rep(fibonacci.fib_value(w)) == w, str),
    )


def zeckendorf_monotone_check(limit: int) -> CheckResult:
    rep = zeckendorf.fib_rep
    return _sweep("Zeckendorf radix monotonicity", f"integers to {limit}",
                  (range(1, limit + 1), lambda n: zeckendorf.cmp_radix(rep(n - 1), rep(n)) < 0,
                   "n={}".format))


def normalize_check(max_len: int) -> CheckResult:
    """normalize_fib preserves value and is idempotent on ternary words."""
    def holds(w: str) -> bool:
        z = zeckendorf.normalize_fib(w)
        return (fibonacci.fib_value(z) == fibonacci.fib_value(w)
                and zeckendorf.is_zeckendorf(z)
                and zeckendorf.normalize_fib(z) == z)

    return _sweep("normalization", f"ternary words to length {max_len}",
                  (_words("012", max_len, 1), holds, str))


def complement_roundtrip_check(radius: int, max_len: int) -> CheckResult:
    def holds(n: int) -> bool:
        w = complement.fibc_rep(n)
        return complement.is_canonical(w) and fibonacci.fibc_value(w) == n

    max_len = _odd(max_len)
    return _sweep(
        "complement round trip", f"integers to +-{radius}, words to length {max_len}",
        (range(-radius, radius + 1), holds, "n={}".format),
        (_canonical_words(max_len),
         lambda w: complement.fibc_rep(fibonacci.fibc_value(w)) == w, str),
    )


def neutral_prefix_check(max_len: int) -> CheckResult:
    """Prepending 00 to a 0-word or 10 to a 1-word keeps the value."""
    val = fibonacci.fibc_value
    return _sweep("neutral prefixes", f"binary words to length {max_len}",
                  (_words("01", max_len, 1),
                   lambda w: val(complement.neutral_prefix(w) + w) == val(w), str))


def generalized_neutral_check(max_len: int) -> CheckResult:
    """Prepending a0 to a ternary word starting with a keeps the value."""
    val = fibonacci.fibc_value
    return _sweep("generalized neutral prefixes", f"ternary suffixes to length {max_len}",
                  ((a + v for v in _words("012", max_len, 0) for a in "012"),
                   lambda u: val(u[0] + "0" + u) == val(u), lambda u: f"{u[0]}|{u[1:]}"))


def zeckendorf_interval_check(max_len: int) -> CheckResult:
    """A nonempty canonical word of length k has value in [F(k-1), F(k))."""
    fib = fibonacci.fib
    return _sweep("Zeckendorf length intervals", f"canonical words to length {max_len}",
                  (_zeckendorf_words(max_len),
                   lambda w: fib(len(w) - 1) <= fibonacci.fib_value(w) < fib(len(w)), str))


def sign_split_check(max_len: int) -> CheckResult:
    """For 11-free words of length k: first digit 0 iff value in [0, F(k-1)),
    first digit 1 iff value in [-F(k-2), 0)."""
    fib, val = fibonacci.fib, fibonacci.fibc_value
    return _sweep("sign split by first digit", f"11-free words to length {max_len}",
                  (complement._no_11_words(max_len),
                   lambda w: (0 <= val(w) < fib(len(w) - 1) if w[0] == "0"
                              else -fib(len(w) - 2) <= val(w) < 0), str))


def canonical_interval_check(max_len: int) -> CheckResult:
    """For canonical complement words of length 2k+1: 0-leading iff value in
    [F(2k-2), F(2k)); 1-leading longer than one digit iff value in
    [-F(2k-1), -F(2k-3)); the single-digit 1 iff value is -1."""
    fib = fibonacci.fib

    def holds(w: str) -> bool:
        n = fibonacci.fibc_value(w)
        k = (len(w) - 1) // 2
        if w == "1":
            return n == -1
        if w[0] == "0":
            return fib(2 * k - 2) <= n < fib(2 * k)
        return -fib(2 * k - 1) <= n < -fib(2 * k - 3)

    max_len = _odd(max_len)
    return _sweep("canonical value intervals", f"canonical words to length {max_len}",
                  (_canonical_words(max_len), holds, str))


def fib_adder_value_check(max_len: int) -> CheckResult:
    """The plain adder output has the input's Fibonacci value."""
    m = adders.berstel_adder()
    val = fibonacci.fib_value
    return _sweep("adder preserves Fibonacci value", f"ternary words to length {max_len}",
                  (_words("012", max_len, 0), lambda u: val(m.run(u)) == val(u),
                   lambda u: u or "(empty)"))


def complement_adder_value_check(max_len: int) -> CheckResult:
    """The extended adder output is two digits longer than the input and has
    the input's complement value."""
    m = adders.complement_adder()

    def holds(u: str) -> bool:
        z = m.run(u)
        return len(z) == len(u) + 2 and fibonacci.fibc_value(z) == fibonacci.fibc_value(u)

    return _sweep("extended adder preserves complement value",
                  f"ternary words to length {max_len}",
                  (_words("012", max_len, 1), holds, str))


def first_letter_check(max_len: int) -> CheckResult:
    """The extended adder output starts with 0 exactly when the input does."""
    m = adders.complement_adder()
    return _sweep("output sign matches input first digit", f"ternary words to length {max_len}",
                  (_words("012", max_len, 1),
                   lambda u: (m.run(u)[0] == "0") == (u[0] == "0"), str))


def adder_relation_check(max_len: int) -> CheckResult:
    """How the two adders relate on padded inputs: feeding 0v to both gives
    the same word up to one leading 0; feeding 101v (resp. 202v) to the plain
    adder prepends 000 (resp. 001) to the extended adder's answer on 1v
    (resp. 2v)."""
    plain = adders.berstel_adder()
    extended = adders.complement_adder()
    prepended = {"0": "0", "101": "000", "202": "001"}

    def holds(case: tuple[str, str]) -> bool:
        p, v = case
        return plain.run(p + v) == prepended[p] + extended.run(p[-1] + v)

    return _sweep("plain/extended adder relations", f"suffixes to length {max_len}",
                  (((p, v) for v in _words("012", max_len, 0) for p in prepended),
                   holds, "|".join))


def addition_check(radius: int) -> CheckResult:
    """End to end: transducer addition agrees with integer addition."""
    fib_limit = 2 * radius
    reps = {n: complement.fibc_rep(n) for n in range(-2 * radius, 2 * radius + 1)}
    fib_reps = {n: zeckendorf.fib_rep(n) for n in range(0, 2 * fib_limit + 1)}
    return _sweep(
        "end-to-end addition", f"pairs to +-{radius} and [0, {fib_limit}]",
        (product(range(-radius, radius + 1), repeat=2),
         lambda p: adders.add_fibc(*p) == reps[p[0] + p[1]], lambda p: f"{p[0]}+{p[1]}"),
        (product(range(fib_limit + 1), repeat=2),
         lambda p: adders.add_fib(*p) == fib_reps[p[0] + p[1]], lambda p: f"{p[0]}+{p[1]} (fib)"),
    )


def order_check(radius: int, max_len: int) -> CheckResult:
    """Representations sort by value under the signed word order, and the
    canonical words up to a given length, in enumeration order, are the
    representations of an integer interval containing 0."""
    rep = complement.fibc_rep
    max_len = _odd(max_len)
    name = "value-ordered representations"
    if rep(0) != "0":
        return CheckResult(name, False, 0, "counterexample rep(0)")
    # The 1-leading words are the negatives, so word i has value lo + i.
    words = _canonical_words(max_len)
    lo = -sum(w[0] == "1" for w in words)
    return _sweep(name, f"integers to +-{radius}, words to length {max_len}",
                  (range(-radius + 1, radius + 1),
                   lambda n: complement.cmp_signed(rep(n - 1), rep(n)) < 0, "n={}".format),
                  (enumerate(words, lo),
                   lambda c: fibonacci.fibc_value(c[1]) == c[0] and rep(c[0]) == c[1],
                   lambda c: f"{c[1]} at n={c[0]}"))


def append_zero_check(max_len: int) -> CheckResult:
    """How appending a trailing zero moves the values of equal-value ternary
    words apart, for words to length min(max_len, 8):

      (i)   equal even length, equal value: u0 and w0 differ by at most 1;
      (ii)  value of u equals value of w000: u0 minus w0000 is 0 or +1;
      (iii) value of u equals value of w101: u0 minus w1010 is -1 or 0.

    The pairing is cubic in the number of words, hence the cap.
    """
    name = "append-zero differences"
    if max_len < 1:
        return CheckResult(name, True, 0, "skipped (depth 0)")
    max_len = min(max_len, 8)
    # by_value[k][n]: the words of length k and value n; appended[w]: the value of w0.
    by_value: list[dict[int, list[str]]] = [{} for _ in range(max_len + 1)]
    appended: dict[str, int] = {}
    for w in _words("012", max_len, 0):
        by_value[len(w)].setdefault(fibonacci.fib_value(w), []).append(w)
        appended[w] = fibonacci.fib_value(w + "0")
    allowed = {"i": (-1, 0, 1), "ii": (0, 1), "iii": (-1, 0)}

    # (part, u, w, x): u and x have equal length and value; x is w in part
    # i, w000 in part ii and w101 in part iii, so u0 - x0 is the difference.
    def pairs() -> Iterator[tuple[str, str, str, str]]:
        for k in range(2, max_len + 1, 2):
            for group in by_value[k].values():
                for u, w in product(group, repeat=2):
                    yield "i", u, w, w
        for k in range(3, max_len + 1):
            for w in _words("012", k - 3, k - 3):
                for part, tail in (("ii", "000"), ("iii", "101")):
                    for u in by_value[k].get(fibonacci.fib_value(w + tail), ()):
                        yield part, u, w, w + tail

    return _sweep(name, f"equal-value pairs to length {max_len}",
                  (pairs(), lambda c: appended[c[1]] - appended[c[3]] in allowed[c[0]],
                   lambda c: str((*c[:3], appended[c[1]] - appended[c[3]]))))


def derivation_check(max_len: int) -> CheckResult:
    """The explored machine has the expected shape and agrees with the
    brute-force translation, carry included, on every short word."""
    derived = derivation.derive_adder()
    # States are named triple.carry, carry 0 to 7; a name without one is a flaw.
    flaws = [f"carry of {s}" for s in derived.states
             if s.partition(".")[2] not in set("01234567")]
    if derived.transition_count != 30:
        flaws.insert(0, f"{derived.transition_count} transitions")
    if len(derived.states) != 10:
        flaws.insert(0, f"{len(derived.states)} states")

    def agrees(case: tuple[str, derivation.Translation]) -> bool:
        word, tr = case
        return (derived.run(word) == tr.output + tr.triple
                and derived.trace(word)[-1].next_state == f"{tr.triple}.{tr.carry}")

    # The shape counts as one instance, checked before any word.
    return _sweep("derived adder vs brute-force translation",
                  f"ternary words to length {max_len}",
                  ((derived,), lambda _: not flaws, lambda _: flaws[0]),
                  (derivation.translate_tree(max_len), agrees, lambda case: case[0]))


def class_inheritance_check(max_len: int) -> CheckResult:
    """Words with the same (tail, carry) class behave identically on every
    next digit: same emitted digit, same next tail, same next carry."""
    classes = {"": ("000", 0)}
    behavior: dict[str, tuple] = {}
    for word, tr in derivation.translate_tree(max_len + 1):
        classes[word] = (tr.triple, tr.carry)
        behavior[word] = (tr.output[-1], tr.triple, tr.carry)
    groups: dict[tuple, tuple] = {}

    def holds(word: str) -> bool:
        children = tuple(behavior[word + a] for a in "012")
        return groups.setdefault(classes[word], children) == children

    return _sweep("equivalent classes behave equally", f"ternary words to length {max_len}",
                  ((w for w in classes if len(w) <= max_len), holds, str))


def run_checks(depth: int = 8) -> list[CheckResult]:
    """The full battery at a given exploration depth: word sweeps go to
    length `depth`, integer sweeps to radius 300 * depth / 8, identities to
    k = 4 * depth.  Depth 0 keeps only the k=1 identities."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    radius = (300 * depth) // 8
    return [
        identities_check(max(1, 4 * depth)),
        value_relation_check(depth),
        twos_prefix_check(depth),
        zeckendorf_roundtrip_check(2 * radius, depth),
        zeckendorf_monotone_check(2 * radius),
        normalize_check(depth),
        complement_roundtrip_check(radius, depth),
        neutral_prefix_check(depth),
        generalized_neutral_check(depth),
        zeckendorf_interval_check(depth),
        sign_split_check(depth),
        canonical_interval_check(depth),
        fib_adder_value_check(depth),
        complement_adder_value_check(depth),
        first_letter_check(depth),
        adder_relation_check(max(0, depth - 3)),
        append_zero_check(depth),
        derivation_check(min(depth, 8)),
        class_inheritance_check(min(depth, 6)),
        order_check(radius, min(2 * depth - 1, 15)),
        addition_check(radius),
    ]
