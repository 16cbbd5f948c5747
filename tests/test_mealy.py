import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibc.adders import berstel_adder, complement_adder
from fibc.derivation import derive_adder
from fibc.mealy import _BLOCK, MealyMachine, MissingTransitionError

from test_large_operands import ternary_words


def tiny_machine(**overrides):
    kwargs = dict(
        states=["a", "b"],
        initial="a",
        transitions=[
            ("a", "0", "0", "a"),
            ("a", "1", "1", "b"),
            ("b", "0", "1", "a"),
            ("b", "1", "0", "b"),
        ],
        final_words={"a": "", "b": "1"},
    )
    kwargs.update(overrides)
    return MealyMachine.build(**kwargs)


def test_build_accepts_valid_machine():
    m = tiny_machine()
    assert m.states == ("a", "b")
    assert m.transition_count == 4
    assert m.input_alphabet == ("0", "1")


def test_adders_states_and_alphabets():
    # build orders states breadth-first from the initial state and reads
    # both alphabets off the transitions; `export-machine --machine T`
    # prints the states in this order.
    assert complement_adder().states == (
        "start", "000.0", "101.7", "100.6", "001.2", "010.4", "010.3",
        "100.5", "001.1", "101.6", "000.1")
    for m in (berstel_adder(), complement_adder()):
        assert m.input_alphabet == ("0", "1", "2")
        assert m.output_alphabet == ("0", "1")


def test_build_reads_alphabets_after_pruning():
    # The unreachable state "o" holds the only 2-transition.
    m = MealyMachine.build(
        states=["a", "o"], initial="a",
        transitions=[("a", "0", "0", "a"), ("o", "2", "1", "a")],
        final_words={"a": "", "o": ""},
    )
    assert m.states == ("a",)
    assert m.input_alphabet == ("0",)
    assert m.output_alphabet == ("0",)


def test_build_rejects_duplicate_transition():
    with pytest.raises(ValueError, match="nondeterministic"):
        tiny_machine(transitions=[
            ("a", "0", "0", "a"),
            ("a", "0", "1", "b"),
        ])


def test_build_rejects_unknown_state():
    with pytest.raises(ValueError, match="unknown state"):
        tiny_machine(transitions=[("a", "0", "0", "zz")])


def test_build_rejects_long_output():
    with pytest.raises(ValueError, match="longer than one digit"):
        tiny_machine(transitions=[("a", "0", "01", "a")])


def test_build_rejects_missing_final_word():
    with pytest.raises(ValueError, match="final output"):
        tiny_machine(final_words={"a": ""})


def test_build_prunes_unreachable_states():
    m = tiny_machine(
        states=["a", "b", "orphan"],
        final_words={"a": "", "b": "1", "orphan": "0"},
    )
    assert "orphan" not in m.states
    assert len(m.states) == 2


def test_run_and_empty_run():
    adder = berstel_adder()
    result = adder.run("2010202")
    assert result.output == "0010110"
    assert result.last_state == "100.6"
    assert result.final_output == "100"
    empty = adder.run("")
    assert empty == ("", "000.0", "000")

    signed = complement_adder()
    result = signed.run("2010202")
    assert result.output == "100110"
    assert result.last_state == "100.6"
    assert result.final_output == "100"
    assert signed.run("") == ("", "start", "000")


def test_run_with_final():
    assert berstel_adder().run_with_final("2220121") == "0101011" + "100"
    assert complement_adder().run_with_final("2220121") == "110110100"
    assert complement_adder().run_with_final("1") == "101"


def test_run_missing_transition_reports_position():
    m = tiny_machine(transitions=[("a", "0", "0", "a"), ("a", "1", "1", "b")])
    with pytest.raises(MissingTransitionError) as err:
        m.run("0010")
    assert err.value.position == 3
    assert err.value.state == "b"


def test_machines_are_read_only():
    for m in (berstel_adder(), complement_adder()):
        with pytest.raises(TypeError):
            m.transitions[("000.0", "0")] = ("000.0", "1")
        with pytest.raises(TypeError):
            m.final_words["000.0"] = "1"
    assert berstel_adder().run_with_final("2") == "0010"


def test_machine_copies_its_tables():
    transitions = {("a", "0"): ("a", "1")}
    final_words = {"a": ""}
    m = MealyMachine(states=("a",), initial="a", transitions=transitions,
                     final_words=final_words)
    transitions[("a", "0")] = ("a", "")
    final_words["a"] = "1"
    assert m.run_with_final("00") == "11"


def test_trace():
    steps = berstel_adder().trace("2")
    assert steps == [("000.0", "2", "0", "010.4")]
    steps = complement_adder().trace("2")
    assert steps == [("start", "2", "", "100.6")]
    assert complement_adder().trace("") == []


def test_trace_concatenates_to_run_output():
    adder = berstel_adder()
    for word in ("2220121", "2010202", "0001112", "222222"):
        steps = adder.trace(word)
        assert "".join(s.output for s in steps) == adder.run(word).output


def traced_run(machine, word, start):
    """(output, last state, final word) assembled from the per-symbol trace."""
    steps = machine.trace(word, start)
    last = steps[-1].next_state if steps else start
    return ("".join(s.output for s in steps), last, machine.final_words[last])


def assert_memo_matches_trace(machine):
    entries = [(state, chunk, hit) for state, row in machine._memo.items()
               for chunk, hit in row.items()]
    bound = len(machine.states) * sum(3 ** k for k in range(1, _BLOCK + 1))
    assert 0 < len(entries) <= bound
    for state, chunk, (nxt, out) in entries:
        assert 1 <= len(chunk) <= _BLOCK
        assert traced_run(machine, chunk, state)[:2] == (out, nxt)


def test_block_run_matches_trace_exhaustively():
    # Every ternary word of length <= 8 from every state, each run once with
    # a cold memo and once with the memo that run left behind; then all of
    # them again through one memo that accumulates, whose every entry must
    # match the trace of its chunk.
    words = ["".join(t) for k in range(9) for t in product("012", repeat=k)]
    for machine in (berstel_adder(), complement_adder(), derive_adder()):
        expected = {}
        for start in machine.states:
            for word in words:
                expected[start, word] = traced_run(machine, word, start)
                machine._memo.clear()
                assert machine.run(word, start) == expected[start, word]
                assert machine.run(word, start) == expected[start, word]
        machine._memo.clear()
        for (start, word), result in expected.items():
            assert machine.run(word, start) == result
        assert_memo_matches_trace(machine)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([berstel_adder(), complement_adder()]), ternary_words(),
       st.data())
def test_block_run_matches_trace_on_long_words(machine, word, data):
    start = data.draw(st.sampled_from(machine.states))
    assert machine.run(word, start) == traced_run(machine, word, start)


@pytest.mark.parametrize("position", [0, 3, 6, 13, 19])
def test_block_run_missing_transition(position):
    # 20 symbols: three whole chunks, then a two-symbol last chunk (18, 19).
    machine = complement_adder()
    rng = random.Random(position)
    word = "".join(rng.choice("012") for _ in range(20))
    bad = word[:position] + "3" + word[position + 1:]
    with pytest.raises(MissingTransitionError) as expected:
        machine.trace(bad)
    machine._memo.clear()
    with pytest.raises(MissingTransitionError) as err:
        machine.run(bad)
    assert (err.value.state, err.value.symbol, err.value.position) == (
        expected.value.state, "3", position)
    cut = position - position % _BLOCK
    entry = traced_run(machine, bad[:cut], machine.initial)[1]
    assert bad[cut:cut + _BLOCK] not in machine._memo.get(entry, {})
    assert machine.run(word) == traced_run(machine, word, machine.initial)


def test_warm_run_reads_only_the_memo(monkeypatch):
    # 13 symbols: two whole chunks, then a one-symbol last chunk.
    machine = complement_adder()
    word = "2010202221012"
    expected = machine.run(word)

    def no_trace(*args):
        raise AssertionError("trace called on a warm run")

    monkeypatch.setattr(MealyMachine, "trace", no_trace)
    assert machine.run(word) == expected
    machine._memo.clear()
    with pytest.raises(AssertionError, match="warm run"):
        machine.run(word)


def test_block_run_from_state_without_transitions():
    m = tiny_machine(transitions=[("a", "0", "0", "a"), ("a", "1", "1", "b")])
    # "b" has no transitions: each word reaches it, then reads one more 0.
    for word, position in (("10", 1), ("00000010000000", 7), ("000000001000", 9)):
        with pytest.raises(MissingTransitionError) as err:
            m.run(word)
        assert (err.value.state, err.value.symbol, err.value.position) == (
            "b", "0", position)
    assert m.run("000000000001") == ("000000000001", "b", "1")


def test_run_composes_across_split_points():
    rng = random.Random(7)
    for machine in (berstel_adder(), complement_adder()):
        for _ in range(300):
            total = rng.randrange(0, 13)
            cut = rng.randrange(0, total + 1)
            u = "".join(rng.choice("012") for _ in range(cut))
            v = "".join(rng.choice("012") for _ in range(total - cut))
            whole = machine.run(u + v)
            first = machine.run(u)
            second = machine.run(v, start=first.last_state)
            assert whole.output == first.output + second.output
            assert whole.last_state == second.last_state


def test_dot_export():
    dot = berstel_adder().to_dot()
    assert '"000.0" -> "010.4" [label="2/0"];' in dot
    assert "__start" in dot
    t_dot = complement_adder().to_dot()
    assert 'label="2/eps"' in t_dot


def test_json_export_matches_machine():
    for machine in (berstel_adder(), complement_adder(), derive_adder()):
        doc = json.loads(machine.to_json())
        assert doc["states"] == list(machine.states)
        assert doc["initial"] == machine.initial
        assert doc["input_alphabet"] == list(machine.input_alphabet)
        assert doc["output_alphabet"] == list(machine.output_alphabet)
        assert [(t["from"], t["input"], t["output"], t["to"])
                for t in doc["transitions"]] == machine.sorted_transitions()
        assert doc["phi"] == machine.final_words


def test_json_schema_fields():
    doc = json.loads(berstel_adder().to_json())
    assert set(doc) == {"states", "initial", "input_alphabet",
                        "output_alphabet", "transitions", "phi"}
    assert doc["initial"] == "000.0"
    assert len(doc["states"]) == 10
    assert len(doc["transitions"]) == 30
    assert set(doc["transitions"][0]) == {"from", "input", "output", "to"}
    assert doc["phi"]["101.7"] == "101"


def test_not_isomorphic_after_output_flip():
    m = berstel_adder()
    flipped = [(src, a, "1" if out == "0" else "0", dst)
               for src, a, out, dst in m.sorted_transitions()]
    other = MealyMachine.build(
        states=m.states, initial=m.initial, transitions=flipped,
        final_words=dict(m.final_words),
    )
    assert other.transitions != m.transitions
    assert other.final_words == m.final_words
