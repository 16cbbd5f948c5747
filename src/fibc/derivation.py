"""First-principles construction of the Fibonacci adder.

Every ternary word u translates canonically into a binary word of the same
length plus a pending three-digit tail with the same Fibonacci value; the
translation extends digit by digit, and the pair (pending tail, carry) where
the carry is an integer bounded by the construction classifies words with
identical future behavior.  Exploring those classes from the empty word
yields the 10-state transducer, the package's only source of the adder;
`translate_word` is the brute-force oracle the exploration is checked
against.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .complement import _words
from .fibonacci import fib_value
from .mealy import MealyMachine

# The five binary triples without adjacent ones, listed by Fibonacci value:
# fib_value(TRIPLES[i]) == i, and fib_value("1" + TRIPLES[i]) == 5 + i.
TRIPLES = ("000", "001", "010", "100", "101")
TRIPLE_VALUE = {t: i for i, t in enumerate(TRIPLES)}


class CarryRangeError(ValueError):
    """A carry left the closed range 0..7 during exploration."""


class CarryState(namedtuple("CarryState", "triple carry")):
    """Adder state: the pending output triple and the integer carry."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return f"{self.triple}.{self.carry}"


Translation = namedtuple("Translation", (
    "output",  # binary word, same length as the input
    "triple",  # pending three-digit tail
    "carry",   # the carry of the class the word falls in
))


def _extend(u: str, prev: Translation) -> Translation:
    """Translation of a nonempty ternary word u from prev, the translation
    of u without its last digit a.

    The output grows by the unique digit b and the tail becomes the unique
    triple t keeping the Fibonacci values equal; the carry is the tail
    values of prev and t plus a, minus three if b is 1.  Raises if the
    candidate search does not come back with exactly one solution.
    """
    target = fib_value(u)
    matches = [
        (b, t)
        for b in "01"
        for t in TRIPLES
        if fib_value(prev.output + b + t) == target
    ]
    if len(matches) != 1:
        raise RuntimeError(
            f"expected exactly one extension for {u!r}, found {len(matches)}"
        )
    b, t = matches[0]
    carry = (TRIPLE_VALUE[prev.triple] + TRIPLE_VALUE[t] - 3 * (ord(b) - 48)
             + ord(u[-1]) - 48)
    return Translation(prev.output + b, t, carry)


_EMPTY = Translation("", "000", 0)


def translate_word(u: str) -> Translation:
    """Canonical translation of a ternary word, found by brute force.

    Starting from (empty output, tail "000", carry 0), each input digit
    extends the translation as `_extend` describes.
    """
    tr = _EMPTY
    for i in range(1, len(u) + 1):
        tr = _extend(u[:i], tr)
    return tr


def translate_tree(max_len: int) -> Iterator[tuple[str, Translation]]:
    """Yield (word, translation) for every nonempty ternary word of length
    <= max_len in radix order, each extended from its prefix's translation,
    yielded before it, by the brute-force search that translate_word makes.
    """
    done = {"": _EMPTY}
    for u in _words("012", max_len, 1):
        tr = done[u] = _extend(u, done[u[:-1]])
        yield u, tr


def step(state: CarryState, symbol: str) -> tuple[CarryState, str]:
    """Successor class and emitted digit for one input digit.

    The carry plus the input digit lies in 0..9 and decodes uniquely as
    (emitted digit, next tail); the next carry must stay in 0..7, which is
    exactly the finiteness claim the exploration verifies.
    """
    if not 0 <= state.carry <= 7:
        raise ValueError(f"carry {state.carry} outside 0..7")
    if state.triple not in TRIPLE_VALUE:
        raise ValueError(f"unknown triple {state.triple!r}")
    if len(symbol) != 1 or symbol not in "012":
        raise ValueError(f"input digit must be 0, 1 or 2, got {symbol!r}")
    a = ord(symbol) - 48
    emitted, tail_value = divmod(state.carry + a, 5)
    triple = TRIPLES[tail_value]
    next_carry = TRIPLE_VALUE[state.triple] + tail_value - 3 * emitted + a
    if not 0 <= next_carry <= 7:
        raise CarryRangeError(
            f"carry {next_carry} outside 0..7 after ({state.name}, {symbol})"
        )
    return CarryState(triple, next_carry), str(emitted)


def derive_adder() -> MealyMachine:
    """Build the adder by breadth-first closure of the carry classes
    reachable from ("000", 0); must come out with 10 states, each carry
    staying within 0..7.
    """
    start = CarryState("000", 0)
    classes, transitions = [start], []
    for state in classes:  # the list grows as classes are found: a BFS queue
        for symbol in "012":
            nxt, emitted = step(state, symbol)
            transitions.append((state.name, symbol, emitted, nxt.name))
            if nxt not in classes:
                classes.append(nxt)
    if len(classes) != 10:
        raise RuntimeError(f"expected 10 reachable classes, found {len(classes)}")
    return MealyMachine(
        states=[s.name for s in classes],
        initial=start.name,
        transitions=transitions,
        final_words={s.name: s.triple for s in classes},
    )
