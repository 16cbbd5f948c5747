import pytest

from fibc.adders import (TableRow, adder_table, add_fib, add_fibc, add_words,
                         berstel_adder, complement_adder, format_table_csv,
                         format_table_text, sub_fibc)
from fibc.cli import main
from fibc.complement import fibc_rep
from fibc.fibonacci import fib, fib_value, fibc_value, twos_complement_rep
from fibc.zeckendorf import fib_rep

from reference_data import ADDER_ROWS


def test_plain_adder_shape():
    m = berstel_adder()
    assert len(m.states) == 10
    assert m.transition_count == 30
    assert m.initial == "000.0"
    assert set(m.states) == {
        "000.0", "001.1", "010.3", "100.5", "101.6",
        "000.1", "001.2", "010.4", "100.6", "101.7",
    }
    assert m.final_words["101.7"] == "101"


def test_extended_adder_shape():
    m = complement_adder()
    assert len(m.states) == 11
    assert m.transition_count == 33
    assert m.initial == "start"
    assert m.final_words["start"] == "000"
    assert m.transitions[("start", "0")] == ("000.0", "")
    assert m.transitions[("start", "1")] == ("101.7", "")
    assert m.transitions[("start", "2")] == ("100.6", "")


def test_every_final_word_is_a_triple():
    # `fibc add` and the table split a run's word into output·final at
    # three digits from the end.
    for machine in (berstel_adder(), complement_adder()):
        assert all(len(w) == 3 for w in machine.final_words.values())


def test_worked_path_sum_of_92():
    steps = berstel_adder().trace("2220121")
    visited = [steps[0].state] + [s.next_state for s in steps]
    assert visited == ["000.0", "010.4", "001.2", "101.7",
                       "010.3", "101.7", "101.7", "100.5"]
    assert "".join(s.output for s in steps) == "0101011"
    assert berstel_adder().final_words[visited[-1]] == "100"
    assert berstel_adder().run("2220121") == "0101011100"
    assert fib_value("0101011100") == 92


def test_worked_path_sum_of_58():
    steps = berstel_adder().trace("2010202")
    assert "".join(s.output for s in steps) == "0010110"
    assert steps[-1].next_state == "100.6"
    word = berstel_adder().run("2010202")
    assert word == "0010110" + berstel_adder().final_words["100.6"]
    assert fib_value(word) == 58


def test_extended_adder_short_outputs():
    m = complement_adder()
    assert m.run("21") == "1010"
    assert m.run("0") == "000"
    assert m.run("1") == "101"


def test_worked_path_signed_sum_of_24():
    steps = complement_adder().trace("2220121")
    visited = [steps[0].state] + [s.next_state for s in steps]
    assert visited == ["start", "100.6", "100.5", "010.4",
                       "101.6", "010.4", "001.2", "100.5"]
    combined = complement_adder().run("2220121")
    assert combined == "110110100"
    assert fibc_value(combined) == 24


def test_worked_path_signed_sum_of_minus_10():
    steps = complement_adder().trace("2010202")
    visited = [steps[0].state] + [s.next_state for s in steps]
    assert visited == ["start", "100.6", "001.1", "010.4",
                       "101.6", "100.6", "001.1", "100.6"]
    assert "".join(s.output for s in steps) == "100110"
    word = complement_adder().run("2010202")
    assert word == "100110" + complement_adder().final_words[visited[-1]]
    assert fibc_value(word) == -10


def test_add_fib_examples():
    assert add_fib(33, 25) == "100000100"
    assert add_fib(33, 25) == fib_rep(58)
    assert add_fib(0, 0) == ""
    assert add_fib(1, 1) == "10"


def test_add_fib_rejects_negative():
    with pytest.raises(ValueError):
        add_fib(-1, 2)


def test_add_fibc_examples():
    assert add_fibc(-1, -9) == "1000100"
    assert add_fibc(0, 0) == "0"
    assert add_fibc(12, -12) == "0"


def test_add_words_examples():
    assert add_words("1", "1000101") == "1000100"
    assert add_words("0", "0") == "0"
    assert add_words("001", "100") == "1"
    for m in range(-40, 41):
        for n in range(-40, 41):
            assert add_words(fibc_rep(m), fibc_rep(n)) == fibc_rep(m + n)


def test_add_words_rejects_non_canonical():
    for u, v in (("10", "0"), ("0", "110"), ("000", "0"), ("0", "2"), ("", "0")):
        with pytest.raises(ValueError):
            add_words(u, v)


def test_sub_fibc_examples():
    assert sub_fibc(0, 1) == "1"
    assert sub_fibc(5, 5) == "0"
    assert sub_fibc(3, 10) == "1001001"
    assert sub_fibc(3, 10) == fibc_rep(-7)


def test_addition_on_huge_operands():
    assert add_fib(10**25, 10**25) == fib_rep(2 * 10**25)
    assert add_fibc(10**25, -(10**25)) == "0"
    assert add_fibc(-(10**25), -(10**25)) == fibc_rep(-2 * 10**25)


class Index:
    """An integer-like operand with nothing but __index__."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n


def test_integer_like_operands_at_every_size():
    # Below F(32) a word is read from a table, above it from the cuts, so
    # the operand is coerced at the entry points, not where its bits are read.
    for v in (5, 10**6, 10**12, 10**400):
        assert fib_rep(Index(v)) == fib_rep(v)
        with pytest.raises(ValueError):
            fib_rep(Index(-v))
        assert fibc_rep(Index(v)) == fibc_rep(v)
        assert fibc_rep(Index(-v)) == fibc_rep(-v)
        assert add_fib(Index(v), Index(3)) == fib_rep(v + 3)
        assert add_fibc(Index(-v), Index(3)) == fibc_rep(3 - v)
        assert sub_fibc(Index(3), Index(v)) == fibc_rep(3 - v)
        assert twos_complement_rep(Index(v)) == twos_complement_rep(v)
        assert twos_complement_rep(Index(-v)) == twos_complement_rep(-v)
    assert fib(Index(5)) == fib(5) and fib(Index(2000)) == fib(2000)
    for bad in (2.0, -2.0, 1e12):
        for call in (fib, fib_rep, fibc_rep, lambda n: fibc_rep(-n),
                     lambda n: add_fib(n, 1), lambda n: add_fibc(1, n),
                     twos_complement_rep):
            with pytest.raises(TypeError):
                call(bad)


def test_table_spot_rows():
    by_word = {r.word: r for r in adder_table()}
    reference = {row[0]: row for row in ADDER_ROWS}
    for word in ("20", "000", "222"):
        assert tuple(by_word[word]) == reference[word]
    assert by_word["20"].fib_value == 4
    assert by_word["20"].signed_adder == "1·001"
    assert by_word["20"].fibc_value == -2
    assert by_word["000"].signed_adder == "00·000"
    assert by_word["000"].signed_adder_value == 0
    assert by_word["222"].signed_adder == "11·010"
    assert by_word["222"].signed_adder_value == 2


def test_table_formatting(capsys):
    assert main(["table"]) == 0
    assert TableRow._fields == tuple(capsys.readouterr().out.splitlines()[0].split())
    rows = adder_table()
    text = format_table_text(rows)
    assert "0·000" in text and "eps·000" in text
    assert len(text.strip().splitlines()) == 40  # header + 39 rows
    csv = format_table_csv(rows)
    lines = csv.strip().splitlines()
    assert len(lines) == 40
    assert lines[1].startswith("0,0,0·000,0,0,eps·000,0")
