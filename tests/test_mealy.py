import copy
import json
import pickle
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibc import mealy
from fibc.adders import berstel_adder, complement_adder
from fibc.derivation import derive_adder
from fibc.complement import _digit_sum
from fibc.mealy import _ROW, MealyMachine, MissingTransitionError, _chunk

from reference_data import ADDER_TRANSITIONS
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
    return MealyMachine(**kwargs)


def test_build_accepts_valid_machine():
    m = tiny_machine()
    assert m.states == ("a", "b")
    assert m.transition_count == 4
    assert m.input_alphabet == ("0", "1")


def test_adders_states_and_alphabets():
    # The constructor orders states breadth-first from the initial state and
    # reads both alphabets off the transitions; `export-machine --machine T`
    # prints the states in this order.
    assert complement_adder().states == (
        "start", "000.0", "101.7", "100.6", "001.2", "010.4", "010.3",
        "100.5", "001.1", "101.6", "000.1")
    for m in (berstel_adder(), complement_adder()):
        assert m.input_alphabet == ("0", "1", "2")
        assert m.output_alphabet == ("0", "1")


def test_build_reads_alphabets_after_pruning():
    # The unreachable state "o" holds the only 2-transition.
    m = MealyMachine(
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


def test_build_rejects_unknown_initial_state():
    with pytest.raises(ValueError, match="initial state 'zz'"):
        tiny_machine(initial="zz")


def test_build_rejects_two_digit_input_symbol():
    with pytest.raises(ValueError, match="digits 0 to 3, got '01'"):
        tiny_machine(transitions=[("a", "01", "0", "a")])


@pytest.mark.parametrize("tables, message", [
    (dict(transitions=[("a", "0", "", "b")]), "unknown state 'b'"),
    (dict(transitions=[("a", "0", "", "a"), ("z", "0", "", "a")]), "unknown state 'z'"),
    (dict(initial="z"), "initial state 'z' not among the states"),
    (dict(transitions=[("a", "0", "01", "a")]), "longer than one digit: '01'"),
    (dict(states=("a", "b"), transitions=[("a", "0", "", "b")]),
     "no final output declared for state 'b'"),
], ids=["dangling-next-state", "unknown-source", "unknown-initial", "two-digit-output",
        "no-final-word"])
def test_constructor_rejects_tables_run_cannot_use(tables, message):
    # Tables that `run` could not use: it would raise KeyError or a start
    # state error, or emit two digits for one symbol.
    kwargs = dict(states=("a",), initial="a", transitions=[("a", "0", "", "a")],
                  final_words={"a": ""})
    with pytest.raises(ValueError, match=message):
        MealyMachine(**{**kwargs, **tables})


def test_missing_transition_error_pickles_and_copies():
    err = MissingTransitionError("000.0", "3", 5)
    for back in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
        assert type(back) is MissingTransitionError
        assert (back.state, back.symbol, back.position) == ("000.0", "3", 5)
        assert str(back) == str(err)


def test_run_and_trace_reject_unknown_start_state():
    m = tiny_machine()
    for call in (m.run, m.trace):
        with pytest.raises(ValueError, match="unknown start state 'zz'"):
            call("01", "zz")


def test_build_prunes_unreachable_states():
    m = tiny_machine(
        states=["a", "b", "orphan"],
        final_words={"a": "", "b": "1", "orphan": "0"},
    )
    assert "orphan" not in m.states
    assert len(m.states) == 2


def traced_run(machine, word, start=None):
    """(output, last state, final word) assembled from the per-symbol trace."""
    start = machine.initial if start is None else start
    steps = machine.trace(word, start)
    last = steps[-1].next_state if steps else start
    return ("".join(s.output for s in steps), last, machine.final_words[last])


def traced_word(machine, word, start=None):
    """What `run` returns, read off the trace: output, then final word."""
    output, _, final = traced_run(machine, word, start)
    return output + final


def test_run_and_empty_run():
    adder = berstel_adder()
    assert adder.run("2010202") == "0010110" + "100"
    assert traced_run(adder, "2010202") == ("0010110", "100.6", "100")
    assert adder.run("") == "000"
    assert traced_run(adder, "") == ("", "000.0", "000")

    signed = complement_adder()
    assert signed.run("2010202") == "100110" + "100"
    assert traced_run(signed, "2010202") == ("100110", "100.6", "100")
    assert signed.run("") == "000"
    assert traced_run(signed, "") == ("", "start", "000")


def test_run_with_final():
    assert berstel_adder().run("2220121") == "0101011" + "100"
    assert complement_adder().run("2220121") == "110110100"
    assert complement_adder().run("1") == "101"


def test_run_missing_transition_reports_position():
    m = tiny_machine(transitions=[("a", "0", "0", "a"), ("a", "1", "1", "b")])
    with pytest.raises(MissingTransitionError) as err:
        m.run("0010")
    assert err.value.position == 3
    assert err.value.state == "b"
    with pytest.raises(MissingTransitionError) as err:
        m.run("00\ud800")  # a lone surrogate, which encode() would reject
    assert (err.value.symbol, err.value.position) == ("\ud800", 2)


def test_machines_are_read_only():
    for m in (berstel_adder(), complement_adder()):
        with pytest.raises(TypeError):
            m.transitions[("000.0", "0")] = ("000.0", "1")
        with pytest.raises(TypeError):
            m.final_words["000.0"] = "1"
    assert berstel_adder().run("2") == "0010"


def test_machine_copies_its_tables():
    transitions = [("a", "0", "1", "a")]
    final_words = {"a": ""}
    m = MealyMachine(states=("a",), initial="a", transitions=transitions,
                     final_words=final_words)
    transitions[0] = ("a", "0", "", "a")
    final_words["a"] = "1"
    assert m.run("00") == "11"


def test_machines_are_frozen_values():
    states = ["a"]
    direct = MealyMachine(states=states, initial="a",
                          transitions=[("a", "0", "1", "a")], final_words={"a": ""})
    states.append("b")
    assert direct.states == ("a",)
    for m in (berstel_adder(), complement_adder(), direct):
        for name in ("initial", "states", "transitions", "final_words", "_rows"):
            with pytest.raises(AttributeError):
                setattr(m, name, getattr(m, name))
            with pytest.raises(AttributeError):
                delattr(m, name)
        with pytest.raises(TypeError):
            hash(m)
        assert copy.copy(m) == m
    tables = dict(states=["a", "b"], initial="a",
                  transitions=[("a", "0", "0", "b"), ("b", "0", "1", "a")],
                  final_words={"a": "", "b": "1"})
    first, second = MealyMachine(**tables), MealyMachine(**tables)
    assert first == second and first is not second
    assert first != tiny_machine() and first != direct
    assert repr(direct) == "MealyMachine(states=('a',), initial='a')"
    # A foreign operand: __eq__ returns NotImplemented, so == falls back to identity.
    assert first.__eq__(object()) is NotImplemented
    assert (first == object()) is False and first != object()


def test_machines_deep_copy_and_pickle():
    for m in (berstel_adder(), complement_adder(), tiny_machine()):
        assert copy.deepcopy(m) is m
        m.run("0110")  # fill some of the memo
        back = pickle.loads(pickle.dumps(m))
        assert back == m and back is not m
        assert memo_entries(back) == []
        assert back.run("0110") == m.run("0110")
        assert memo_entries(back) != []
        with pytest.raises(AttributeError):
            back.initial = back.initial


def test_transitions_are_kept_in_export_order():
    # The constructor keeps transitions as its breadth-first walk meets
    # them, so the stored order is already states in order, then symbols;
    # shuffled input tuples and states come out the same.
    adder = berstel_adder()
    tuples, states = adder.sorted_transitions(), list(adder.states)
    random.Random(0).shuffle(tuples)
    random.Random(0).shuffle(states)
    shuffled = MealyMachine(states, adder.initial, tuples, dict(adder.final_words))
    for m in (adder, complement_adder(), shuffled):
        keys = list(m.transitions)
        assert keys == sorted(keys, key=lambda k: (m.states.index(k[0]), k[1]))
        assert [t[:2] for t in m.sorted_transitions()] == keys
    assert shuffled.sorted_transitions() == ADDER_TRANSITIONS
    assert shuffled.states == adder.states


def test_rows_are_made_with_the_machine():
    # One empty memo row per kept state, right away and after unpickling.
    for m in (berstel_adder(), complement_adder(), tiny_machine(), holey_adder()):
        fresh = MealyMachine(m.states, m.initial, m.sorted_transitions(),
                             dict(m.final_words))
        back = pickle.loads(pickle.dumps(m))
        for machine in (fresh, back):
            assert set(machine._rows) == set(machine.states)
            assert memo_entries(machine) == []
            assert_memo_matches_trace(machine, filled=False)  # the rows' layout


def test_import_loads_only_what_fibc_runs():
    # A fresh interpreter that ignores the environment and site-packages.
    # The library needs none of these; argparse brings in re and enum.
    src = Path(mealy.__file__).resolve().parent.parent
    code = ("import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import fibc\n"
            "heavy = {'dataclasses', 'json', 'inspect', 'typing'}\n"
            "print(*sorted((heavy | {'re', 'enum', 'threading'}) & set(sys.modules)))\n"
            "import fibc.cli\n"
            "print(*sorted(heavy & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.splitlines() == ["", ""]


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
        output = "".join(s.output for s in steps)
        assert output + adder.final_words[steps[-1].next_state] == adder.run(word)


def row_index(chunk):
    """Where `run` keeps a chunk in a state's row: four symbols at their
    base-4 value, a head of 0 to 3 symbols at 256 plus its head byte, the
    sentinel 1 followed by the head's symbols."""
    value = int("1" + chunk, 4)
    return value - 256 if len(chunk) == 4 else 256 + value


CHUNKS = {row_index(chunk): chunk for k in range(5)
          for chunk in ("".join(t) for t in product("0123", repeat=k))}


EMPTY = [None] * _ROW


def forget(machine):
    """Empty every entry of `run`'s memo; the rows themselves stay.  Only
    rows that hold an entry are rewritten, from one shared empty list."""
    for row in machine._rows.values():
        if row.count(None) != _ROW:
            row[:_ROW] = EMPTY


def memo_entries(machine):
    """(state, row index) of every filled entry of `run`'s memo."""
    return [(state, index) for state, row in machine._rows.items()
            for index, hit in enumerate(row[:_ROW]) if hit is not None]


def assert_memo_matches_trace(machine, filled=True):
    entries = [(state, CHUNKS[index], hit) for state, row in machine._rows.items()
               for index, hit in enumerate(row[:_ROW]) if hit is not None]
    assert all(row[_ROW] == state and len(row) == _ROW + 1
               for state, row in machine._rows.items())
    bound = len(machine.states) * (1 + 3 + 9 + 27 + 81)
    assert len(entries) <= bound
    assert entries or not filled
    for state, chunk, (nxt, out) in entries:
        assert nxt is machine._rows[nxt[_ROW]]
        assert traced_run(machine, chunk, state)[:2] == (out, nxt[_ROW])


def test_row_layout_covers_every_chunk_once():
    # Every chunk of 0 to 4 symbols over 0123 has an index of its own below
    # _ROW, and _chunk reads that chunk back from it.
    assert len(CHUNKS) == 1 + 4 + 16 + 64 + 256
    for index, chunk in CHUNKS.items():
        assert 0 <= index < _ROW
        assert _chunk(index) == chunk


def test_empty_word_reads_the_bare_sentinel_head():
    # The empty word is head byte 1 alone: entry 257, which stays in the
    # state's own row and outputs nothing.
    for machine in (berstel_adder(), complement_adder()):
        for state in machine.states:
            forget(machine)
            assert machine.run("", state) == machine.final_words[state]
            assert memo_entries(machine) == [(state, 257)]
            row = machine._rows[state]
            nxt, output = row[257]
            assert nxt is row and output == ""


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
                expected[start, word] = traced_word(machine, word, start)
                forget(machine)
                assert machine.run(word, start) == expected[start, word]
                assert machine.run(word, start) == expected[start, word]
        forget(machine)
        for (start, word), result in expected.items():
            assert machine.run(word, start) == result
        assert_memo_matches_trace(machine)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([berstel_adder(), complement_adder()]), ternary_words(),
       st.data())
def test_block_run_matches_trace_on_long_words(machine, word, data):
    start = data.draw(st.sampled_from(machine.states))
    assert machine.run(word, start) == traced_word(machine, word, start)


def holey_adder():
    """The plain adder without its transition from the initial state on 2."""
    adder = berstel_adder()
    return MealyMachine(
        states=adder.states, initial=adder.initial,
        transitions=[t for t in adder.sorted_transitions()
                     if t[:2] != (adder.initial, "2")],
        final_words=dict(adder.final_words))


def holey_word(machine, length, position, rng):
    """A random ternary word that first reaches the initial state's missing
    2 at `position`."""
    while True:
        word, state = "", machine.initial
        for _ in range(position):
            symbol = rng.choice([a for a in "012" if (state, a) in machine.transitions])
            word += symbol
            state = machine.transitions[state, symbol][0]
        if state == machine.initial:
            return word + "2" + "".join(rng.choice("012") for _ in range(length - position - 1))


@pytest.mark.parametrize("position", [0, 1, 2, 3, 6, 13, 19])
def test_block_run_missing_transition(position):
    # Words of 20 to 23 symbols, so heads of 0 to 3 symbols (length % 4)
    # come before the whole chunks of four.
    machine = holey_adder()
    rng = random.Random(position)
    for length in (20, 21, 22, 23):
        bad = holey_word(machine, length, position, rng)
        with pytest.raises(MissingTransitionError) as expected:
            machine.trace(bad)
        assert (expected.value.position, expected.value.symbol) == (position, "2")
        forget(machine)
        with pytest.raises(MissingTransitionError) as err:
            machine.run(bad)
        assert (err.value.state, err.value.symbol, err.value.position) == (
            expected.value.state, "2", position)
        # The same sum read through `addend` fails at the same place.
        u = bad.replace("2", "1")
        v = "".join(str(int(a) - int(b)) for a, b in zip(bad, u))
        forget(machine)
        with pytest.raises(MissingTransitionError) as err:
            machine.run(u, addend=v)
        assert (err.value.state, err.value.symbol, err.value.position) == (
            expected.value.state, "2", position)
        # The failed fill stored nothing; every earlier fill matches the trace.
        head = length % 4
        cut = 0 if position < head else position - (position - head) % 4
        chunk = bad[:head] if position < head else bad[cut:cut + 4]
        entry = traced_run(machine, bad[:cut])[1]
        assert machine._rows[entry][row_index(chunk)] is None
        assert_memo_matches_trace(machine, filled=False)
        # A symbol that no state reads is reported just as well.
        foreign = bad[:position] + "3" + bad[position + 1:]
        with pytest.raises(MissingTransitionError) as err:
            machine.run(foreign)
        assert (err.value.symbol, err.value.position) == ("3", position)
        assert machine.run(bad[:position]) == traced_word(machine, bad[:position])


def test_warm_run_reads_only_the_memo(monkeypatch):
    # 13 symbols: a one-symbol head, then three whole chunks; 12 symbols and
    # the empty word: the sentinel-only head, then three chunks or none.
    machine = complement_adder()
    words = ["2010202221012", "201020222101", ""]
    pairs = [("1010101010101", "1000101000001"), ("101010101010", "100010100000")]

    def runs():
        return ([machine.run(word) for word in words],
                [machine.run(u, addend=v) for u, v in pairs])

    expected = runs()

    def no_trace(*args):
        raise AssertionError("trace called on a warm run")

    monkeypatch.setattr(MealyMachine, "trace", no_trace)
    assert runs() == expected
    for word in words:
        forget(machine)
        with pytest.raises(AssertionError, match="warm run"):
            machine.run(word)


def binary_words(k):
    return ["".join(t) for t in product("01", repeat=k)]


def test_addend_reads_the_digit_sum_exhaustively():
    # Every pair of equal-length binary words of length <= 6, from every
    # state of both adders.
    for machine in (berstel_adder(), complement_adder()):
        for start in machine.states:
            for k in range(7):
                words = binary_words(k)
                for u in words:
                    for v in words:
                        assert (machine.run(u, start, addend=v)
                                == machine.run(_digit_sum(u, v), start))


@st.composite
def binary_pairs(draw):
    k = draw(st.integers(min_value=0, max_value=10_000))
    u, v = (format(draw(st.integers(0, 2**k - 1)), "b").zfill(k) if k else ""
            for _ in range(2))
    return u, v


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([berstel_adder(), complement_adder()]), binary_pairs(),
       st.data())
def test_addend_matches_trace_on_long_words(machine, pair, data):
    start = data.draw(st.sampled_from(machine.states))
    u, v = pair
    total = _digit_sum(u, v)
    assert machine.run(u, start, addend=v) == traced_word(machine, total, start)
    assert machine.run(total, start) == traced_word(machine, total, start)


@pytest.mark.parametrize("word", ["1_0", " 10", "+10", "\uff11\uff10", "\u0661\u0660"])
def test_run_rejects_what_int_would_parse(word):
    # int() reads each of these as 4 in base 4; run must not.
    assert int(word, 4) == 4
    for machine in (berstel_adder(), complement_adder()):
        with pytest.raises(MissingTransitionError) as expected:
            machine.trace(word)
        with pytest.raises(MissingTransitionError) as err:
            machine.run(word)
        assert (err.value.state, err.value.symbol, err.value.position) == (
            expected.value.state, expected.value.symbol, expected.value.position)


@pytest.mark.parametrize("word, addend", [
    ("01", "1"), ("", "0"), ("0", ""), ("2", "0"), ("0", "2"), ("1_0", "100"),
    ("10", " 10"), ("\uff11", "1"), ("1", "\u0661"), ("11", "3"),
    ("\ud800", "0"), ("0", "\ud800"),  # lone surrogates, which encode() rejects
])
def test_addend_must_be_binary_and_as_long(word, addend):
    with pytest.raises(ValueError) as err:
        berstel_adder().run(word, addend=addend)
    assert type(err.value) is ValueError
    assert str(err.value) == ("run with addend needs two binary words of equal length, "
                              f"got lengths {len(word)} and {len(addend)}")


@pytest.mark.parametrize("symbol", ["4", "9", "a", "01", "\uff11"])
def test_symbols_outside_0_to_3_are_rejected(symbol):
    with pytest.raises(ValueError, match="digits 0 to 3"):
        MealyMachine(states=("a",), initial="a",
                     transitions=[("a", "0", "", "a"), ("a", symbol, "1", "a")],
                     final_words={"a": ""})
    if len(symbol) == 1:
        with pytest.raises(ValueError, match="digits 0 to 3"):
            tiny_machine(transitions=[("a", "0", "0", "a"), ("a", symbol, "1", "b")])


def test_run_reads_symbol_3():
    # 3 is the largest symbol a 2-bit field holds.
    m = tiny_machine(transitions=[
        ("a", "0", "0", "a"), ("a", "3", "1", "b"),
        ("b", "0", "", "b"), ("b", "3", "0", "a"),
    ])
    rng = random.Random(3)
    for length in range(12):
        for _ in range(20):
            word = "".join(rng.choice("03") for _ in range(length))
            assert m.run(word) == traced_word(m, word)


def test_block_run_from_state_without_transitions():
    m = tiny_machine(transitions=[("a", "0", "0", "a"), ("a", "1", "1", "b")])
    # "b" has no transitions: each word reaches it, then reads one more 0.
    for word, position in (("10", 1), ("00000010000000", 7), ("000000001000", 9)):
        with pytest.raises(MissingTransitionError) as err:
            m.run(word)
        assert (err.value.state, err.value.symbol, err.value.position) == (
            "b", "0", position)
    assert m.run("000000000001") == "000000000001" + "1"
    assert traced_run(m, "000000000001") == ("000000000001", "b", "1")


def test_run_composes_across_split_points():
    rng = random.Random(7)
    for machine in (berstel_adder(), complement_adder()):
        for _ in range(300):
            total = rng.randrange(0, 13)
            cut = rng.randrange(0, total + 1)
            u = "".join(rng.choice("012") for _ in range(cut))
            v = "".join(rng.choice("012") for _ in range(total - cut))
            output, middle, _ = traced_run(machine, u)
            assert machine.run(u + v) == output + machine.run(v, start=middle)
            assert traced_run(machine, u + v)[1] == traced_run(machine, v, middle)[1]


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
    other = MealyMachine(
        states=m.states, initial=m.initial, transitions=flipped,
        final_words=dict(m.final_words),
    )
    assert other.transitions != m.transitions
    assert other.final_words == m.final_words
