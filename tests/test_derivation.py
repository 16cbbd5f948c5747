from itertools import product

import pytest

from fibc import derivation
from fibc.adders import berstel_adder
from fibc.complement import _words
from fibc.derivation import (CarryRangeError, CarryState, TRIPLES, derive_adder,
                             step, translate_tree, translate_word)
from fibc.fibonacci import fib_value
from fibc.mealy import MealyMachine, TraceStep
from fibc.verify import CheckResult, derivation_check


def test_records_are_plain_named_tuples():
    state = CarryState("000", 0)
    assert state.name == "000.0" and state == ("000", 0)
    assert repr(state) == "CarryState(triple='000', carry=0)"
    moved = state._replace(carry=3)
    assert type(moved) is CarryState and moved.name == "000.3"
    assert CheckResult("s", True, 2, "d").line() == "ok   s: d (2 instances)"
    assert translate_word("2")._fields == ("output", "triple", "carry")
    for record in (state, CheckResult("s", False, 0, ""), TraceStep("a", "0", "", "a")):
        assert not hasattr(record, "__dict__")


def test_triples_are_value_ordered():
    assert TRIPLES == ("000", "001", "010", "100", "101")
    assert [fib_value(t) for t in TRIPLES] == [0, 1, 2, 3, 4]
    assert [fib_value("1" + t) for t in TRIPLES] == [5, 6, 7, 8, 9]


def test_translate_examples():
    assert translate_word("2")[:2] == ("0", "010")
    assert translate_word("10")[:2] == ("00", "010")
    assert translate_word("22")[:2] == ("01", "001")
    assert translate_word("") == ("", "000", 0)


def test_translate_invariants():
    for length in range(0, 6):
        for tup in product("012", repeat=length):
            u = "".join(tup)
            w, s, c = translate_word(u)
            assert len(w) == len(u)
            assert 0 <= c <= 7
            assert fib_value(u) == fib_value(w + s)


def test_translate_tree_matches_translate_word():
    seen = 0
    for word, tr in translate_tree(5):
        seen += 1
        assert tr == translate_word(word)
    assert seen == sum(3 ** k for k in range(1, 6))


def test_translate_tree_walks_words_in_radix_order():
    assert [w for w, _ in translate_tree(4)] == list(_words("012", 4, 1))
    assert list(translate_tree(0)) == []


def test_derivation_check_names_the_first_failing_word(monkeypatch):
    # A rerouted adder: from 010.4 on 1 to 001.2 instead of 000.0.  The
    # check reports the first word in radix order that it gets wrong.
    adder = berstel_adder()
    bad = MealyMachine(adder.states, adder.initial,
                       [(s, a, out, "001.2" if (s, a) == ("010.4", "1") else d)
                        for s, a, out, d in adder.sorted_transitions()],
                       dict(adder.final_words))

    def agrees(word):
        tr = translate_word(word)
        return (bad.run(word), bad.trace(word)[-1].next_state) == (
            tr.output + tr.triple, f"{tr.triple}.{tr.carry}")

    words = list(_words("012", 4, 1))
    first = next(i for i, word in enumerate(words) if not agrees(word))
    assert words[first] == "21"
    monkeypatch.setattr(derivation, "derive_adder", lambda: bad)
    result = derivation_check(4)
    assert not result.ok
    assert result.detail == "counterexample 21"
    assert result.checked == 1 + first + 1  # the shape, then the words


def test_carry_examples():
    assert translate_word("").carry == 0
    assert translate_word("2").carry == 4
    assert translate_word("22").carry == 2


def test_carry_matches_state_names():
    adder = derive_adder()
    for length in range(0, 6):
        for tup in product("012", repeat=length):
            u = "".join(tup)
            steps = adder.trace(u)
            last = steps[-1].next_state if steps else adder.initial
            triple, value = last.split(".")
            tr = translate_word(u)
            assert tr.triple == triple
            assert tr.carry == int(value)


def test_step_examples():
    nxt, emitted = step(CarryState("000", 0), "2")
    assert (nxt, emitted) == (CarryState("010", 4), "0")
    nxt, emitted = step(CarryState("010", 4), "2")
    assert (nxt, emitted) == (CarryState("001", 2), "1")
    nxt, emitted = step(CarryState("101", 7), "1")
    assert (nxt, emitted) == (CarryState("100", 5), "1")


def test_step_rejects_bad_input():
    with pytest.raises(ValueError):
        step(CarryState("000", 9), "0")
    with pytest.raises(ValueError):
        step(CarryState("011", 0), "0")
    for symbol in ("3", "", "01"):
        with pytest.raises(ValueError):
            step(CarryState("000", 0), symbol)


def test_step_range_violation_on_unreachable_class():
    with pytest.raises(CarryRangeError):
        step(CarryState("101", 4), "0")


def test_derive_shape():
    m = derive_adder()
    assert len(m.states) == 10
    assert m.transition_count == 30
    assert all(0 <= int(s.split(".")[1]) <= 7 for s in m.states)


def test_derive_rejects_an_extra_reachable_class(monkeypatch):
    # The start's 0-loop goes to a fresh class that loops on 0 and moves as
    # the start on 1 and 2, so all ten classes stay reachable beside it.
    start, extra = CarryState("000", 0), CarryState("101", 0)

    def step_with_extra(state, symbol):
        if symbol == "0" and state in (start, extra):
            return extra, "0"
        return step(start if state == extra else state, symbol)

    monkeypatch.setattr(derivation, "step", step_with_extra)
    with pytest.raises(RuntimeError, match="expected 10 reachable classes, found 11"):
        derive_adder()


def test_translate_rejects_an_ambiguous_extension(monkeypatch):
    # With every word valued 0, all ten (digit, triple) candidates match.
    monkeypatch.setattr(derivation, "fib_value", lambda word: 0)
    with pytest.raises(RuntimeError, match="expected exactly one extension for '1', found 10"):
        translate_word("1")


def test_derived_machine_computes_translation():
    m = derive_adder()
    for word, tr in translate_tree(6):
        assert "".join(s.output for s in m.trace(word)) == tr.output
        assert m.run(word) == tr.output + tr.triple


def test_equivalent_classes_behave_equally_at_depth_6():
    from fibc.verify import class_inheritance_check

    result = class_inheritance_check(6)
    assert result.ok and result.checked == sum(3 ** k for k in range(7))


def test_equivalent_words_have_equal_children():
    groups = {}
    for length in range(0, 6):
        for tup in product("012", repeat=length):
            u = "".join(tup)
            tr = translate_word(u)
            key = (tr.triple, tr.carry)
            children = tuple(
                (translate_word(u + a).output[-1], translate_word(u + a).triple,
                 translate_word(u + a).carry)
                for a in "012"
            )
            if key in groups:
                assert groups[key] == children, u
            groups[key] = children
    assert len(groups) == 10


def test_append_zero_spot_cases():
    # u = "10", w = "02" share value 2; appending 0 moves them 1 apart.
    assert fib_value("10") == fib_value("02") == 2
    assert fib_value("100") - fib_value("020") == -1
    # u = w gives difference 0; the w = empty corner of part (ii) also holds.
    assert fib_value("0000") - fib_value("0000") == 0
