"""The two concrete adders and the end-to-end addition pipelines.

`berstel_adder` rewrites a digit-wise sum of two Zeckendorf words (alphabet
0/1/2) into a binary word of equal Fibonacci value; `complement_adder` is the
same machine behind a fresh start state with three silent start transitions,
and preserves the complement value instead.  The transition table is not
written down here: it comes from the first-principles construction in
`derivation`, and the tests compare it with the paper's figure.

Addition stays on words from end to end: the adder's output is normalized
by local rewriting, and through its integer value only when that rewriting
is left unfinished (see zeckendorf._normalize_binary).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from operator import index

from .complement import _canonical, _pad, _words, fibc_rep, is_canonical
from .derivation import derive_adder
from .fibonacci import fib_value, fibc_value
from .mealy import MealyMachine
from .zeckendorf import _normalize_binary, fib_rep

START = "start"


@cache
def berstel_adder() -> MealyMachine:
    """The 10-state adder for Fibonacci-value-preserving rewriting, built by
    `derive_adder()` once per process.
    """
    return derive_adder()


@cache
def complement_adder() -> MealyMachine:
    """The adder extended for the complement system: a fresh initial state
    with three silent transitions choosing the entry point by first digit.
    A first digit a enters where the plain adder stands after reading a0a,
    a0 being the word's neutral prefix; the fresh state's final word is
    that of the plain adder's initial state.
    """
    base = berstel_adder()
    transitions = base.sorted_transitions()
    transitions += [(START, a, "", base.trace(a + "0" + a)[-1].next_state) for a in "012"]
    final_words = dict(base.final_words)
    final_words[START] = base.final_words[base.initial]
    return MealyMachine(
        states=(START, *base.states),
        initial=START,
        transitions=transitions,
        final_words=final_words,
    )


def _addition(u: str, v: str, signed: bool) -> tuple[str, str, str, str]:
    """The word-level pipeline behind every addition, for canonical words
    (complement words if `signed`, else Zeckendorf words) that need no
    validation.  Returns its stages: both operands padded to equal length,
    the adder's output word on their digit-wise sum, and last the result.
    The adder reads that sum straight from the padded operands (`run` with
    `addend`), so it is never built as a word.  The result comes from the
    adder's output by rewriting, linear in the word length; only a word that
    the rewriting rounds leave unfinished goes through int.
    """
    if signed:
        u, v = _pad(u, v)
    else:
        width = max(len(u), len(v))
        u, v = u.zfill(width), v.zfill(width)
    raw = (complement_adder() if signed else berstel_adder()).run(u, addend=v)
    if signed:
        # An odd-length sum gives an odd-length output with its sign digit.
        result = _canonical(_normalize_binary(raw), raw[0], len(raw))
    else:
        result = _normalize_binary(raw)
    return u, v, raw, result


def _output_final(raw: str) -> str:
    """An adder's `run` word shown as "output·final" ("eps" for an empty
    output).  Every final word of both adders is a state's pending
    three-digit triple, so the last three digits are the final word."""
    return f"{raw[:-3] or 'eps'}·{raw[-3:]}"


def add_words(u: str, v: str) -> str:
    """Canonical complement word of the sum of two canonical complement
    words: pad with neutral prefixes, add digit-wise, feed the extended
    adder, canonicalize, all on words.

    >>> add_words("1", "1000101")
    '1000100'
    """
    for w in (u, v):
        if not is_canonical(w):
            raise ValueError(f"cannot add non-canonical word {w!r}")
    return _addition(u, v, True)[-1]


def add_fib(m: int, n: int) -> str:
    """Sum of two nonnegative integers, computed on Zeckendorf words: pad
    with leading zeros, add digit-wise, feed the adder, normalize.

    >>> add_fib(33, 25)
    '100000100'
    """
    m, n = index(m), index(n)
    if m < 0 or n < 0:
        raise ValueError("Fibonacci addition is defined for nonnegative integers")
    return _addition(fib_rep(m), fib_rep(n), False)[-1]


def add_fibc(m: int, n: int) -> str:
    """Sum of two integers, computed on complement words (see add_words).

    >>> add_fibc(-1, -9)
    '1000100'
    """
    return _addition(fibc_rep(m), fibc_rep(n), True)[-1]


def sub_fibc(m: int, n: int) -> str:
    """Difference of two integers as a complement word.

    >>> sub_fibc(3, 10)
    '1001001'
    """
    return add_fibc(m, -index(n))


TableRow = namedtuple("TableRow", ("word", "fib_value", "fib_adder", "fib_adder_value",
                                   "fibc_value", "signed_adder", "signed_adder_value"))
TableRow.__doc__ = """One behavior-table row as printed, its field names being the header:
a ternary word, its value in each system, and what each adder turns it
into, shown as "output·final" ("eps" for an empty output), with that
word's value in the adder's own system."""


def adder_table() -> list[TableRow]:
    """Rows for the 39 ternary words of length 1 to 3, in radix order: the
    plain adder read with `fib_value`, then the signed one with
    `fibc_value`."""
    systems = ((berstel_adder(), fib_value), (complement_adder(), fibc_value))
    rows = []
    for word in _words("012", 3, 1):
        cells = []
        for machine, value in systems:
            raw = machine.run(word)
            cells += [value(word), _output_final(raw), value(raw)]
        rows.append(TableRow(word, *cells))
    return rows


def format_table_text(rows: list[TableRow]) -> str:
    """Aligned plain-text rendering with a header line."""
    cells = [TableRow._fields] + [tuple(map(str, r)) for r in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
             for line in cells]
    return "\n".join(lines) + "\n"


def format_table_csv(rows: list[TableRow]) -> str:
    return "".join(",".join(map(str, line)) + "\n" for line in [TableRow._fields, *rows])
