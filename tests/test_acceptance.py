"""Acceptance suite: one test per criterion, each printing a PASS line with
its wall-clock time and asserting the stated budget.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they come.
"""

import time

from fibc import verify
from fibc.adders import adder_table, berstel_adder, complement_adder
from fibc.cli import main
from fibc.complement import fibc_rep
from fibc.derivation import derive_adder
from fibc.fibonacci import fibc_value, twos_complement_rep, twos_complement_value
from fibc.zeckendorf import fib_rep

from reference_data import (ADDER_FINAL_WORDS, ADDER_ROWS, ADDER_STATES,
                            ADDER_TRANSITIONS, COMPLEMENT_WORDS, ZECKENDORF_WORDS)


class budget:
    """Context manager asserting a wall-clock limit and printing the verdict."""

    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"PASS criterion {self.number}: {self.label} "
                  f"[{elapsed:.2f}s < {self.seconds}s]")
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded {self.seconds}s ({elapsed:.2f}s)"
            )
        else:
            print(f"FAIL criterion {self.number}: {self.label} [{elapsed:.2f}s]")
        return False


def test_criterion_1_behavior_table(capsys):
    with budget(1, "39-row behavior table", 1.0):
        code = main(["table"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 40
        got = [tuple(line.split()) for line in lines[1:]]
        expected = [
            (w, str(fv), fo, str(fov), str(cv), co, str(cov))
            for w, fv, fo, fov, cv, co, cov in ADDER_ROWS
        ]
        assert got == expected
        assert [tuple(row) for row in adder_table()] == ADDER_ROWS


def test_criterion_2_worked_examples():
    with budget(2, "worked transducer examples", 1.0):
        plain = berstel_adder()
        extended = complement_adder()

        steps = plain.trace("2220121")
        assert "".join(s.output for s in steps) == "0101011"
        assert plain.final_words[steps[-1].next_state] == "100"
        assert plain.run("2220121") == "0101011" + "100"

        steps = plain.trace("2010202")
        assert "".join(s.output for s in steps) == "0010110"
        assert steps[-1].next_state == "100.6"

        combined = extended.run("2220121")
        assert combined == "110110100" and fibc_value(combined) == 24

        steps = extended.trace("2010202")
        assert "".join(s.output for s in steps) == "100110"
        assert fibc_value(extended.run("2010202")) == -10


def test_criterion_3_plain_adder_value_preservation():
    with budget(3, "value preservation, plain adder, 88572 words", 10.0):
        result = verify.fib_adder_value_check(10)
        assert result.ok and result.checked == 88573  # and the empty word


def test_criterion_4_extended_adder_value_preservation():
    with budget(4, "value preservation, extended adder, 88572 words", 10.0):
        result = verify.complement_adder_value_check(10)
        assert result.ok and result.checked == 88572


def test_criterion_5_end_to_end_addition():
    with budget(5, "addition grids [-300,300]^2 and [0,600]^2", 60.0):
        result = verify.addition_check(300)
        assert result.ok and result.checked == 2 * 601 ** 2


def test_criterion_6_derivation():
    with budget(6, "derived adder shape and brute-force agreement", 10.0):
        for machine in (derive_adder(), berstel_adder()):
            assert list(machine.states) == ADDER_STATES
            assert machine.sorted_transitions() == ADDER_TRANSITIONS
            assert dict(machine.final_words) == ADDER_FINAL_WORDS
        result = verify.derivation_check(8)
        assert result.ok and result.checked == 1 + sum(3 ** k for k in range(1, 9))


def test_criterion_7_reference_tables():
    with budget(7, "reference representation tables", 1.0):
        assert [fib_rep(n) for n in range(30)] == ZECKENDORF_WORDS
        for n, w in COMPLEMENT_WORDS.items():
            assert fibc_rep(n) == w


def test_criterion_8_order_characterization():
    with budget(8, "value-ordered representation map", 30.0):
        result = verify.order_check(5000, 15)
        # 10000 consecutive pairs in [-5000, 5000], 1597 words to length 15.
        assert result.ok and result.checked == 10000 + 1597


def test_criterion_9_identity_prefix_interval_relation_suites():
    with budget(9, "identity, prefix, interval and relation sweeps", 120.0):
        expected = [
            # Closed-form identities, exact through k = 30.
            (verify.identities_check(30), 30),
            # Neutral prefixes: binary to length 14, ternary version to length 10.
            (verify.neutral_prefix_check(14), 32766),
            (verify.generalized_neutral_check(10), 265719),
            # Interval laws: canonical Zeckendorf words to length 20, words
            # without adjacent ones and canonical complement words to 17.
            (verify.zeckendorf_interval_check(20), 17710),
            (verify.sign_split_check(17), 10943),
            (verify.canonical_interval_check(17), 4181),
            # Appending a zero to equal-value ternary pairs, to length 8.
            (verify.append_zero_check(8), 371376),
            # Output sign and plain/extended relations, suffixes to length 8.
            (verify.first_letter_check(8), 9840),
            (verify.adder_relation_check(8), 29523),
        ]
        for result, count in expected:
            assert result.ok, result.line()
            assert result.checked == count, result.line()


def test_criterion_10_twos_complement_crosscheck():
    with budget(10, "two's-complement reference behavior", 1.0):
        assert twos_complement_value("01011") == 11
        assert twos_complement_value("10001") == -15
        assert twos_complement_value("11100") == -4
        assert 11 + 17 == 28 and bin(28)[2:] == "11100"
        assert twos_complement_rep(-4) == "100"
        assert twos_complement_rep(11) == "01011"
        for n in range(-512, 513):
            assert twos_complement_value(twos_complement_rep(n)) == n
