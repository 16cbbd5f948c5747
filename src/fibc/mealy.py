"""Deterministic Mealy machines with a per-state final output word.

A machine reads a word left to right, emitting an output word of at most one
digit per transition, and contributes one extra word (depending on the state
it stops in) to be concatenated after the regular output.  `run` returns
that whole word; `trace` gives the path that produced it.  Machines are
read-only slotted objects: no attribute can be assigned or deleted once
built, and only the memo behind `run` grows, caching what the transitions
determine.  The constructor, which unpickling goes through too, is the one
way in: it rejects any table that `run` could not use and keeps only what
the initial state reaches, walked breadth-first: states and transitions in
the order met, which is export order.  States are opaque strings; input
symbols are the digits 0 to 3.  `json` is loaded on export, by `to_json`, so
importing the module stays light: `import fibc` loads none of
`dataclasses`, `json`, `inspect`, `typing`, `re`, `enum` or `threading`.

`trace` is the only loop that steps one symbol at a time.  `run` reads
"1" + word as an int in base 4: four symbols to each big-endian byte after
one head byte, the sentinel 1 then the first len % 4 symbols (1 to 127).
Each state gets a row of `_ROW` empty entries with the machine, and an
entry, (next state's row, output), is filled from `trace` on its first
miss: chunk byte b at b, head byte h at 256 + h.  A fill that hits a
missing transition stores nothing, and `run` reports the error at its
position in the word, from the byte's index; a word with a symbol other
than 0 to 3 goes to `trace` whole.  So one step of `run` is one list
index and one unpack, and the memo never holds more than
states x (1 + |A| + |A|^2 + |A|^3 + |A|^4) entries for input alphabet A:
states x 121 for the adders.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from types import MappingProxyType

_ROW = 384  # row entries: 256 four-symbol chunks, then the heads 1 to 127
_FIELDS = ("states", "initial", "transitions", "final_words")  # what equality compares


def _chunk(index: int) -> str:
    """The input symbols behind a row index: a head's follow its sentinel 1."""
    digits = "".join("0123"[index >> 2 * k & 3] for k in (3, 2, 1, 0))
    return digits if index < 256 else digits.partition("1")[2]


class MissingTransitionError(ValueError):
    """A run hit a (state, symbol) pair with no transition."""

    def __init__(self, state: str, symbol: str, position: int):
        super().__init__(
            f"no transition from state {state!r} on input {symbol!r} "
            f"at position {position}"
        )
        self.state = state
        self.symbol = symbol
        self.position = position

    def __reduce__(self) -> tuple:
        # BaseException would rebuild the error from its one-message args.
        return type(self), (self.state, self.symbol, self.position)


TraceStep = namedtuple("TraceStep", "state symbol output next_state")


class MealyMachine:
    """Attributes cannot be assigned or deleted; machines are equal when
    their four fields are, and unhashable."""

    # _rows: state -> its row: _ROW entries, each None or (next state's
    # row, output), filled by run(), and then the state
    __slots__ = _FIELDS + ("_rows",)

    def __init__(self, states: Iterable[str], initial: str,
                 transitions: Iterable[tuple[str, str, str, str]],
                 final_words: Mapping[str, str]) -> None:
        """Validate a machine given by (src, input, output, dst) tuples, as
        `sorted_transitions` lists them, and keep read-only copies of the
        part reachable from the initial state in breadth-first (export)
        order, with an empty memo row for each of its states.
        """
        known = set(states)
        if initial not in known:
            raise ValueError(f"initial state {initial!r} not among the states")
        delta = {}
        for src, symbol, output, dst in transitions:
            if src not in known or dst not in known:
                missing = src if src not in known else dst
                raise ValueError(f"transition uses unknown state {missing!r}")
            if len(symbol) != 1 or symbol not in "0123":
                raise ValueError(f"input symbols must be the digits 0 to 3, got {symbol!r}")
            if len(output) > 1:
                raise ValueError(f"transition output longer than one digit: {output!r}")
            if (src, symbol) in delta:
                raise ValueError(
                    f"nondeterministic: duplicate transition from {src!r} on {symbol!r}"
                )
            delta[src, symbol] = (dst, output)
        order, seen, kept = [initial], {initial}, {}
        for s in order:  # the list grows as states are found: a BFS queue
            if s not in final_words:
                raise ValueError(f"no final output declared for state {s!r}")
            for a in "0123":  # so kept holds the transitions in export order
                hit = delta.get((s, a))
                if hit is not None:
                    kept[s, a] = hit
                    if hit[0] not in seen:
                        seen.add(hit[0])
                        order.append(hit[0])
        # Read-only copies: a cached machine is shared by every caller.
        init = object.__setattr__
        init(self, "states", tuple(order))
        init(self, "initial", initial)
        init(self, "transitions", MappingProxyType(kept))
        init(self, "final_words", MappingProxyType({s: final_words[s] for s in order}))
        init(self, "_rows", {s: [None] * _ROW + [s] for s in order})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in _FIELDS)

    def __copy__(self) -> "MealyMachine":
        return self  # read-only, as copy.copy of a tuple gives the tuple

    def __deepcopy__(self, memo: dict) -> "MealyMachine":
        return self

    def __reduce__(self) -> tuple:
        # Rebuilt from its four fields, with an empty memo.
        return type(self), (self.states, self.initial, self.sorted_transitions(),
                            dict(self.final_words))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(states={self.states!r}, initial={self.initial!r})"

    @property
    def input_alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({a for (_, a) in self.transitions}))

    @property
    def output_alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({c for (_, out) in self.transitions.values() for c in out}
                            | {c for w in self.final_words.values() for c in w}))

    @property
    def transition_count(self) -> int:
        return len(self.transitions)

    def run(self, word: str, start: str | None = None, *,
            addend: str | None = None) -> str:
        """Read a word and return its output with the last state's final
        word appended; `trace` gives the path that produced it.

        With `addend`, read the digit-wise sum of two equal-length binary
        words, `word` and `addend`, without building it; anything else
        there is a ValueError, as is an unknown start state.  A symbol with
        no transition from the state reached, one outside 0 to 3 included,
        raises MissingTransitionError with its position in the word.
        Running the empty word gives the start state's final word.
        """
        state = self.initial if start is None else start
        row = self._rows.get(state)
        if row is None:
            raise ValueError(f"unknown start state {state!r}")
        n = len(word)
        if addend is None:
            # ASCII first: encode() raises on a lone surrogate.
            if not word.isascii() or word.encode().translate(None, b"0123"):
                self.trace(word, state)  # raises at the first foreign symbol
            number = int("1" + word, 4)
        else:
            # Base 4 gives each binary digit a 2-bit field: no carries.  One
            # check of both words: ASCII first, then no byte but 0 and 1.
            pair = word + addend
            if (len(addend) != n or not pair.isascii()
                    or pair.encode().translate(None, b"01")):
                raise ValueError("run with addend needs two binary words of equal "
                                 f"length, got lengths {n} and {len(addend)}")
            number = int("1" + word, 4) + int("0" + addend, 4)
        data = number.to_bytes(n // 4 + 1, "big")
        fill = self._fill
        pieces: list[str] = []
        append = pieces.append
        chunks = iter(data)
        try:
            index = 256 + next(chunks)
            row, output = row[index] or fill(row, index)
            append(output)
            for b in chunks:
                row, output = row[b] or fill(row, b)
                append(output)
        except MissingTransitionError as err:
            i = len(pieces)  # the failed byte's index; the head is byte 0
            offset = n % 4 + 4 * (i - 1) if i else 0
            raise MissingTransitionError(err.state, err.symbol, err.position + offset) from None
        append(self.final_words[row[_ROW]])
        return "".join(pieces)

    def _fill(self, row: list, index: int) -> tuple[list, str]:
        """Fill a row entry from `trace` on its chunk, which stores nothing
        if the chunk hits a missing transition; the bare sentinel stays put."""
        steps = self.trace(_chunk(index), row[_ROW])
        hit = row[index] = (self._rows[steps[-1].next_state] if steps else row,
                            "".join(s.output for s in steps))
        return hit

    def trace(self, word: str, start: str | None = None) -> list[TraceStep]:
        """Step-by-step path taken while reading a word."""
        state = self.initial if start is None else start
        if state not in self.final_words:
            raise ValueError(f"unknown start state {state!r}")
        steps = []
        for position, symbol in enumerate(word):
            hit = self.transitions.get((state, symbol))
            if hit is None:
                raise MissingTransitionError(state, symbol, position)
            nxt, output = hit
            steps.append(TraceStep(state, symbol, output, nxt))
            state = nxt
        return steps

    def sorted_transitions(self) -> list[tuple[str, str, str, str]]:
        """Transitions as (src, input, output, dst), in state order and by
        input symbol within a state: the order the constructor keeps."""
        return [(src, a, out, dst) for (src, a), (dst, out) in self.transitions.items()]

    def to_dot(self) -> str:
        """GraphViz digraph; edges labeled input/output, empty output shown
        as "eps", the initial state marked with an incoming arrow.
        """
        lines = [
            "digraph mealy {",
            "  rankdir=LR;",
            '  __start [shape=point, label=""];',
        ]
        for s in self.states:
            final = self.final_words[s] or "eps"
            lines.append(f'  "{s}" [shape=ellipse, label="{s}\\n{final}"];')
        lines.append(f'  __start -> "{self.initial}";')
        for src, a, out, dst in self.sorted_transitions():
            lines.append(f'  "{src}" -> "{dst}" [label="{a}/{out or "eps"}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json  # loaded on export only (see the module docstring)

        doc = {
            "states": list(self.states),
            "initial": self.initial,
            "input_alphabet": list(self.input_alphabet),
            "output_alphabet": list(self.output_alphabet),
            "transitions": [
                {"from": src, "input": a, "output": out, "to": dst}
                for src, a, out, dst in self.sorted_transitions()
            ],
            "phi": {s: self.final_words[s] for s in self.states},
        }
        return json.dumps(doc, indent=2) + "\n"
