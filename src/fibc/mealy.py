"""Deterministic Mealy machines with a per-state final output word.

A machine reads a word left to right, emitting an output word of at most one
digit per transition, and contributes one extra word (depending on the state
it stops in) to be concatenated after the regular output.  Machines are
immutable once built, apart from the memo behind `run`, which only caches
what the transitions determine; states are opaque strings, kept in
breadth-first discovery order from the initial state so that exports are
deterministic.

`trace` is the only loop that steps one symbol at a time.  `run` reads its
word in chunks of `_BLOCK` symbols, the shorter last chunk included, and
looks each up in a per-machine memo state -> {chunk: (next state, output)}
that starts empty and is filled from `trace` on a miss.  It never holds more
than states x (|A| + |A|^2 + ... + |A|^_BLOCK) entries for input alphabet A,
states x 1,092 for the adders (12,012 for the signed adder; 200,000 small
additions fill about 2,400).
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

_BLOCK = 6  # symbols per memoised step of MealyMachine.run


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


class RunResult(NamedTuple):
    output: str       # concatenated per-transition outputs
    last_state: str
    final_output: str  # the last state's extra word

    @property
    def combined(self) -> str:
        """Output word with the final word appended."""
        return self.output + self.final_output


class TraceStep(NamedTuple):
    state: str
    symbol: str
    output: str
    next_state: str


@dataclass(frozen=True)
class MealyMachine:
    states: tuple[str, ...]
    initial: str
    transitions: Mapping[tuple[str, str], tuple[str, str]] = field(repr=False)
    final_words: Mapping[str, str] = field(repr=False)
    # state -> {chunk of 1 to _BLOCK symbols: (next state, output)}, filled by run()
    _memo: defaultdict[str, dict[str, tuple[str, str]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Read-only copies: a cached machine is shared by every caller.
        object.__setattr__(self, "transitions", MappingProxyType(dict(self.transitions)))
        object.__setattr__(self, "final_words", MappingProxyType(dict(self.final_words)))
        object.__setattr__(self, "_memo", defaultdict(dict))

    @classmethod
    def build(
        cls,
        states: Iterable[str],
        initial: str,
        transitions: Iterable[tuple[str, str, str, str]],
        final_words: dict[str, str],
    ) -> "MealyMachine":
        """Validate and assemble a machine from (src, input, output, dst)
        transition tuples; unreachable states are pruned.
        """
        known = set(states)
        if initial not in known:
            raise ValueError(f"initial state {initial!r} not among the states")

        delta: dict[tuple[str, str], tuple[str, str]] = {}
        for src, symbol, output, dst in transitions:
            if src not in known or dst not in known:
                missing = src if src not in known else dst
                raise ValueError(f"transition uses unknown state {missing!r}")
            if len(symbol) != 1:
                raise ValueError(f"input symbol must be one digit, got {symbol!r}")
            if len(output) > 1:
                raise ValueError(f"transition output longer than one digit: {output!r}")
            if (src, symbol) in delta:
                raise ValueError(
                    f"nondeterministic: duplicate transition from {src!r} on {symbol!r}"
                )
            delta[(src, symbol)] = (dst, output)
        symbols = sorted({a for (_, a) in delta})

        # Prune to the part reachable from the initial state, in BFS order.
        order = [initial]
        seen = {initial}
        queue = deque(order)
        while queue:
            s = queue.popleft()
            for a in symbols:
                hit = delta.get((s, a))
                if hit is not None and hit[0] not in seen:
                    seen.add(hit[0])
                    order.append(hit[0])
                    queue.append(hit[0])
        delta = {key: val for key, val in delta.items() if key[0] in seen}

        phi = {}
        for s in order:
            if s not in final_words:
                raise ValueError(f"no final output declared for state {s!r}")
            phi[s] = final_words[s]
        return cls(states=tuple(order), initial=initial, transitions=delta,
                   final_words=phi)

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

    def run(self, word: str, start: str | None = None) -> RunResult:
        """Read a word and return (output, last state, final word).

        The word is read in chunks of `_BLOCK` symbols, the last one possibly
        shorter, each looked up in the machine's memo.  A chunk seen for the
        first time from its state is filled from `trace`, unless it hits a
        missing transition, which is reported at its position in the word
        and stores nothing.  Running the empty word stays in the start state
        and emits nothing.
        """
        state = self.initial if start is None else start
        if state not in self.final_words:
            raise ValueError(f"unknown start state {state!r}")
        memo = self._memo
        pieces: list[str] = []
        append = pieces.append
        for i in range(0, len(word), _BLOCK):
            chunk = word[i:i + _BLOCK]
            try:
                hit = memo[state][chunk]
            except KeyError:
                try:
                    steps = self.trace(chunk, state)
                except MissingTransitionError as err:
                    raise MissingTransitionError(
                        err.state, err.symbol, err.position + i) from None
                hit = memo[state][chunk] = (
                    steps[-1].next_state, "".join(s.output for s in steps))
            state, output = hit
            append(output)
        return RunResult("".join(pieces), state, self.final_words[state])

    def run_with_final(self, word: str, start: str | None = None) -> str:
        """Output word with the last state's extra word appended."""
        return self.run(word, start).combined

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
        """Transitions as (src, input, output, dst), in state order."""
        index = {s: i for i, s in enumerate(self.states)}
        items = [(src, a, out, dst) for (src, a), (dst, out) in self.transitions.items()]
        items.sort(key=lambda t: (index[t[0]], t[1]))
        return items

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
