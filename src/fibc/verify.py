"""Exhaustive small-instance checks for every property the package rests on.

Each check sweeps a finite domain (word length or integer radius), counts the
instances it looked at, and reports the first counterexample if any. The CLI
`verify` subcommand runs the whole battery; tests call the same functions
with the depths they need, optionally injecting a broken machine.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple

from . import adders, complement, derivation, fibonacci, zeckendorf
from .mealy import MealyMachine


class CheckResult(NamedTuple):
    name: str
    ok: bool
    checked: int
    detail: str

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        return f"{status} {self.name}: {self.detail} ({self.checked} instances)"


def _result(name: str, checked: int, failures: list[str], what: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, checked, f"counterexample {failures[0]}")
    return CheckResult(name, True, checked, what)


def _ternary_words(max_len: int, min_len: int = 1) -> Iterator[str]:
    for length in range(min_len, max_len + 1):
        for tup in product("012", repeat=length):
            yield "".join(tup)


def _binary_words(max_len: int, min_len: int = 0) -> Iterator[str]:
    for length in range(min_len, max_len + 1):
        for tup in product("01", repeat=length):
            yield "".join(tup)


def _zeckendorf_words(max_len: int) -> Iterator[str]:
    """Nonempty canonical Zeckendorf words, shortest first."""
    for w in complement._no_11_words(max_len):
        if w[0] == "1":
            yield w


def identities_check(k_max: int) -> CheckResult:
    rows = fibonacci.check_identities(k_max) if k_max >= 1 else []
    failures = [f"k={r.k} flags={r[1:]}" for r in rows if not all(r[1:])]
    return _result("fibonacci identities", len(rows), failures,
                   f"three identities exact for k <= {k_max}")


def value_relation_check(max_len: int) -> CheckResult:
    """Complement value == Fibonacci value minus leading digit times F(k)."""
    checked = 0
    failures = []
    for w in _binary_words(max_len, min_len=1):
        checked += 1
        expected = fibonacci.fib_value(w) - (ord(w[0]) - 48) * fibonacci.fib(len(w))
        if fibonacci.fibc_value(w) != expected:
            failures.append(w)
    return _result("complement/Fibonacci value relation", checked, failures,
                   f"binary words to length {max_len}")


def twos_prefix_check(max_len: int) -> CheckResult:
    """0 and 1 are neutral prefixes for the two's-complement value."""
    checked = 0
    failures = []
    val = fibonacci.twos_complement_value
    for w in _binary_words(max_len):
        checked += 1
        if val("00" + w) != val("0" + w) or val("11" + w) != val("1" + w):
            failures.append(w)
    return _result("two's-complement neutral prefixes", checked, failures,
                   f"suffixes to length {max_len}")


def zeckendorf_roundtrip_check(limit: int, max_len: int) -> CheckResult:
    checked = 0
    failures = []
    for n in range(limit + 1):
        checked += 1
        if fibonacci.fib_value(zeckendorf.fib_rep(n)) != n:
            failures.append(f"n={n}")
    for w in _zeckendorf_words(max_len):
        checked += 1
        if zeckendorf.fib_rep(fibonacci.fib_value(w)) != w:
            failures.append(w)
    return _result("Zeckendorf round trip", checked, failures,
                   f"integers to {limit}, words to length {max_len}")


def zeckendorf_monotone_check(limit: int) -> CheckResult:
    checked = 0
    failures = []
    prev = zeckendorf.fib_rep(0)
    for n in range(1, limit + 1):
        checked += 1
        cur = zeckendorf.fib_rep(n)
        if zeckendorf.cmp_radix(prev, cur) >= 0:
            failures.append(f"n={n}")
        prev = cur
    return _result("Zeckendorf radix monotonicity", checked, failures,
                   f"integers to {limit}")


def normalize_check(max_len: int) -> CheckResult:
    """normalize_fib preserves value and is idempotent on ternary words."""
    checked = 0
    failures = []
    for w in _ternary_words(max_len):
        checked += 1
        z = zeckendorf.normalize_fib(w)
        if (fibonacci.fib_value(z) != fibonacci.fib_value(w)
                or not zeckendorf.is_zeckendorf(z)
                or zeckendorf.normalize_fib(z) != z):
            failures.append(w)
    return _result("normalization", checked, failures,
                   f"ternary words to length {max_len}")


def complement_roundtrip_check(radius: int, max_len: int) -> CheckResult:
    checked = 0
    failures = []
    for n in range(-radius, radius + 1):
        checked += 1
        w = complement.fibc_rep(n)
        if not complement.is_canonical(w) or fibonacci.fibc_value(w) != n:
            failures.append(f"n={n}")
    if max_len >= 1:
        for w in complement.enumerate_canonical(max_len if max_len % 2 else max_len - 1):
            checked += 1
            if complement.fibc_rep(fibonacci.fibc_value(w)) != w:
                failures.append(w)
    return _result("complement round trip", checked, failures,
                   f"integers to +-{radius}, words to length {max_len}")


def neutral_prefix_check(max_len: int) -> CheckResult:
    """Prepending 00 to a 0-word or 10 to a 1-word keeps the value."""
    checked = 0
    failures = []
    val = fibonacci.fibc_value
    for w in _binary_words(max_len, min_len=1):
        checked += 1
        if val(("00" if w[0] == "0" else "10") + w) != val(w):
            failures.append(w)
    return _result("neutral prefixes", checked, failures,
                   f"binary words to length {max_len}")


def generalized_neutral_check(max_len: int) -> CheckResult:
    """Prepending a0 to a ternary word starting with a keeps the value."""
    checked = 0
    failures = []
    val = fibonacci.fibc_value
    for v in _ternary_words(max_len, min_len=0):
        for a in "012":
            checked += 1
            if val(a + "0" + a + v) != val(a + v):
                failures.append(a + "|" + v)
    return _result("generalized neutral prefixes", checked, failures,
                   f"ternary suffixes to length {max_len}")


def zeckendorf_interval_check(max_len: int) -> CheckResult:
    """A nonempty canonical word of length k has value in [F(k-1), F(k))."""
    checked = 0
    failures = []
    for w in _zeckendorf_words(max_len):
        checked += 1
        n = fibonacci.fib_value(w)
        if not fibonacci.fib(len(w) - 1) <= n < fibonacci.fib(len(w)):
            failures.append(w)
    return _result("Zeckendorf length intervals", checked, failures,
                   f"canonical words to length {max_len}")


def sign_split_check(max_len: int) -> CheckResult:
    """For 11-free words of length k: first digit 0 iff value in [0, F(k-1)),
    first digit 1 iff value in [-F(k-2), 0)."""
    checked = 0
    failures = []
    for w in complement._no_11_words(max_len):
        checked += 1
        n = fibonacci.fibc_value(w)
        k = len(w)
        if w[0] == "0":
            good = 0 <= n < fibonacci.fib(k - 1)
        else:
            good = -fibonacci.fib(k - 2) <= n < 0
        if not good:
            failures.append(w)
    return _result("sign split by first digit", checked, failures,
                   f"11-free words to length {max_len}")


def canonical_interval_check(max_len: int) -> CheckResult:
    """For canonical complement words of length 2k+1: 0-leading iff value in
    [F(2k-2), F(2k)); 1-leading longer than one digit iff value in
    [-F(2k-1), -F(2k-3)); the single-digit 1 iff value is -1."""
    if max_len % 2 == 0:
        max_len -= 1
    checked = 0
    failures = []
    if max_len >= 1:
        for w in complement.enumerate_canonical(max_len):
            checked += 1
            n = fibonacci.fibc_value(w)
            k = (len(w) - 1) // 2
            if w == "1":
                good = n == -1
            elif w[0] == "0":
                good = fibonacci.fib(2 * k - 2) <= n < fibonacci.fib(2 * k)
            else:
                good = -fibonacci.fib(2 * k - 1) <= n < -fibonacci.fib(2 * k - 3)
            if not good:
                failures.append(w)
    return _result("canonical value intervals", checked, failures,
                   f"canonical words to length {max_len}")


def fib_adder_value_check(max_len: int, machine: MealyMachine | None = None) -> CheckResult:
    """The plain adder output has the input's Fibonacci value."""
    m = machine if machine is not None else adders.berstel_adder()
    checked = 1
    failures = []
    if fibonacci.fib_value(m.run_with_final("")) != 0:
        failures.append("(empty)")
    for u in _ternary_words(max_len):
        checked += 1
        if fibonacci.fib_value(m.run_with_final(u)) != fibonacci.fib_value(u):
            failures.append(u)
            break
    return _result("adder preserves Fibonacci value", checked, failures,
                   f"ternary words to length {max_len}")


def complement_adder_value_check(
    max_len: int, machine: MealyMachine | None = None
) -> CheckResult:
    """The extended adder output is two digits longer than the input and has
    the input's complement value."""
    m = machine if machine is not None else adders.complement_adder()
    checked = 0
    failures = []
    for u in _ternary_words(max_len):
        checked += 1
        z = m.run_with_final(u)
        if len(z) != len(u) + 2 or fibonacci.fibc_value(z) != fibonacci.fibc_value(u):
            failures.append(u)
            break
    return _result("extended adder preserves complement value", checked, failures,
                   f"ternary words to length {max_len}")


def first_letter_check(max_len: int, machine: MealyMachine | None = None) -> CheckResult:
    """The extended adder output starts with 0 exactly when the input does."""
    m = machine if machine is not None else adders.complement_adder()
    checked = 0
    failures = []
    for u in _ternary_words(max_len):
        checked += 1
        z = m.run_with_final(u)
        if (z[0] == "0") != (u[0] == "0"):
            failures.append(u)
    return _result("output sign matches input first digit", checked, failures,
                   f"ternary words to length {max_len}")


def adder_relation_check(max_len: int) -> CheckResult:
    """How the two adders relate on padded inputs: feeding 0v to both gives
    the same word up to one leading 0; feeding 101v (resp. 202v) to the plain
    adder prepends 000 (resp. 001) to the extended adder's answer on 1v
    (resp. 2v)."""
    plain = adders.berstel_adder()
    extended = adders.complement_adder()
    checked = 0
    failures = []
    for v in _ternary_words(max_len, min_len=0):
        checked += 3
        if plain.run_with_final("0" + v) != "0" + extended.run_with_final("0" + v):
            failures.append("0|" + v)
        if plain.run_with_final("101" + v) != "000" + extended.run_with_final("1" + v):
            failures.append("101|" + v)
        if plain.run_with_final("202" + v) != "001" + extended.run_with_final("2" + v):
            failures.append("202|" + v)
    return _result("plain/extended adder relations", checked, failures,
                   f"suffixes to length {max_len}")


def addition_check(radius: int, fib_limit: int | None = None) -> CheckResult:
    """End to end: transducer addition agrees with integer addition."""
    if fib_limit is None:
        fib_limit = 2 * radius
    checked = 0
    failures = []
    reps = {n: complement.fibc_rep(n) for n in range(-2 * radius, 2 * radius + 1)}
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            checked += 1
            if adders.add_fibc(m, n) != reps[m + n]:
                failures.append(f"{m}+{n}")
                break
        if failures:
            break
    fib_reps = {n: zeckendorf.fib_rep(n) for n in range(0, 2 * fib_limit + 1)}
    for m in range(fib_limit + 1):
        for n in range(fib_limit + 1):
            checked += 1
            if adders.add_fib(m, n) != fib_reps[m + n]:
                failures.append(f"{m}+{n} (fib)")
                break
        if failures:
            break
    return _result("end-to-end addition", checked, failures,
                   f"pairs to +-{radius} and [0, {fib_limit}]")


def order_check(radius: int, max_len: int) -> CheckResult:
    """Representations sort by value under the signed word order, and the
    words up to a given length are exactly an integer interval."""
    checked = 0
    failures = []
    if complement.fibc_rep(0) != "0":
        failures.append("rep(0)")
    prev = complement.fibc_rep(-radius)
    for n in range(-radius + 1, radius + 1):
        checked += 1
        cur = complement.fibc_rep(n)
        if complement.cmp_signed(prev, cur) >= 0:
            failures.append(f"n={n}")
        prev = cur
    if max_len % 2 == 0:
        max_len -= 1
    if max_len >= 1 and not failures:
        words = complement.enumerate_canonical(max_len)
        values = [fibonacci.fibc_value(w) for w in words]
        checked += len(words)
        lo = values[0]
        if values != list(range(lo, lo + len(values))):
            failures.append("values not contiguous")
        elif lo > 0 or lo + len(values) <= 0:
            failures.append("interval misses 0")
        elif [complement.fibc_rep(v) for v in values] != words:
            failures.append("enumeration is not the representation image")
    return _result("value-ordered representations", checked, failures,
                   f"integers to +-{radius}, words to length {max_len}")


def append_zero_check(max_len: int) -> CheckResult:
    if max_len < 1:
        return CheckResult("append-zero differences", True, 0, "skipped (depth 0)")
    report = derivation.check_append_zero(min(max_len, 8))
    failures = [str(c) for c in report.counterexamples]
    return _result("append-zero differences", sum(report.pairs_checked), failures,
                   f"equal-value pairs to length {min(max_len, 8)}")


def derivation_check(max_len: int) -> CheckResult:
    """The explored machine has the expected shape and agrees with the
    brute-force translation, carry included, on every short word."""
    derived = derivation.derive_adder()
    failures = []
    checked = 1
    if len(derived.states) != 10:
        failures.append(f"{len(derived.states)} states")
    if derived.transition_count != 30:
        failures.append(f"{derived.transition_count} transitions")
    for s in derived.states:
        c = int(s.split(".")[1])
        if not 0 <= c <= 7:
            failures.append(f"carry of {s}")
    if not failures:
        for word, tr in derivation.translate_tree(max_len):
            checked += 1
            run = derived.run(word)
            if (run.output != tr.output
                    or run.final_output != tr.triple
                    or run.last_state != f"{tr.triple}.{tr.carry}"):
                failures.append(word)
                break
    return _result("derived adder vs brute-force translation", checked, failures,
                   f"ternary words to length {max_len}")


def class_inheritance_check(max_len: int) -> CheckResult:
    """Words with the same (tail, carry) class behave identically on every
    next digit: same emitted digit, same next tail, same next carry."""
    classes = {"": ("000", 0)}
    behavior: dict[str, tuple] = {}
    for word, tr in derivation.translate_tree(max_len + 1):
        classes[word] = (tr.triple, tr.carry)
        behavior[word] = (tr.output[-1], tr.triple, tr.carry)
    groups: dict[tuple, dict] = {}
    checked = 0
    failures = []
    for word, key in classes.items():
        if len(word) > max_len:
            continue
        checked += 1
        children = tuple(behavior[word + a] for a in "012")
        if key in groups and groups[key] != children:
            failures.append(word)
        groups.setdefault(key, children)
    return _result("equivalent classes behave equally", checked, failures,
                   f"ternary words to length {max_len}")


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
