"""Acceptance suite: one test per criterion, each printing a PASS line with
its wall-clock time and asserting the stated budget.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they come.
"""

import time
from itertools import product

from fibc.adders import adder_table, add_fib, add_fibc, berstel_adder, complement_adder
from fibc.cli import main
from fibc.complement import enumerate_canonical, fibc_rep, cmp_signed
from fibc.derivation import check_append_zero, derive_adder, translate_tree
from fibc.fibonacci import (check_identities, fib, fib_value, fibc_value,
                            twos_complement_rep, twos_complement_value)
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
        rows = adder_table()
        assert [
            (r.word, r.fib_val, f"{r.fib_out or 'eps'}·{r.fib_out_final}",
             r.fib_out_val, r.fibc_val,
             f"{r.fibc_out or 'eps'}·{r.fibc_out_final}", r.fibc_out_val)
            for r in rows
        ] == ADDER_ROWS


def test_criterion_2_worked_examples():
    with budget(2, "worked transducer examples", 1.0):
        plain = berstel_adder()
        extended = complement_adder()

        run = plain.run("2220121")
        assert run.output == "0101011" and run.final_output == "100"

        run = plain.run("2010202")
        assert run.output == "0010110" and run.last_state == "100.6"

        combined = extended.run_with_final("2220121")
        assert combined == "110110100" and fibc_value(combined) == 24

        run = extended.run("2010202")
        assert run.output == "100110" and fibc_value(run.combined) == -10


def test_criterion_3_plain_adder_value_preservation():
    with budget(3, "value preservation, plain adder, 88572 words", 10.0):
        machine = berstel_adder()
        count = 0
        for length in range(1, 11):
            for tup in product("012", repeat=length):
                u = "".join(tup)
                count += 1
                assert fib_value(machine.run_with_final(u)) == fib_value(u), u
        assert count == 88572


def test_criterion_4_extended_adder_value_preservation():
    with budget(4, "value preservation, extended adder, 88572 words", 10.0):
        machine = complement_adder()
        count = 0
        for length in range(1, 11):
            for tup in product("012", repeat=length):
                u = "".join(tup)
                count += 1
                z = machine.run_with_final(u)
                assert len(z) == len(u) + 2, u
                assert fibc_value(z) == fibc_value(u), u
        assert count == 88572


def test_criterion_5_end_to_end_addition():
    with budget(5, "addition grids [-300,300]^2 and [0,600]^2", 60.0):
        reps = {n: fibc_rep(n) for n in range(-600, 601)}
        for m in range(-300, 301):
            for n in range(-300, 301):
                assert add_fibc(m, n) == reps[m + n], (m, n)
        fib_reps = {n: fib_rep(n) for n in range(0, 1201)}
        for m in range(0, 601):
            for n in range(0, 601):
                assert add_fib(m, n) == fib_reps[m + n], (m, n)


def test_criterion_6_derivation():
    with budget(6, "derived adder shape and brute-force agreement", 10.0):
        derived = derive_adder()
        assert len(derived.states) == 10
        assert derived.transition_count == 30
        assert all(0 <= int(s.split(".")[1]) <= 7 for s in derived.states)
        for machine in (derived, berstel_adder()):
            assert list(machine.states) == ADDER_STATES
            assert machine.sorted_transitions() == ADDER_TRANSITIONS
            assert dict(machine.final_words) == ADDER_FINAL_WORDS
        count = 0
        for word, tr in translate_tree(8):
            count += 1
            run = derived.run(word)
            assert run.output == tr.output, word
            assert run.final_output == tr.triple, word
        assert count == sum(3 ** k for k in range(1, 9))


def test_criterion_7_reference_tables():
    with budget(7, "reference representation tables", 1.0):
        assert [fib_rep(n) for n in range(30)] == ZECKENDORF_WORDS
        for n, w in COMPLEMENT_WORDS.items():
            assert fibc_rep(n) == w


def test_criterion_8_order_characterization():
    with budget(8, "value-ordered representation map", 30.0):
        assert fibc_rep(0) == "0"
        prev = fibc_rep(-5000)
        for n in range(-4999, 5001):
            cur = fibc_rep(n)
            assert cmp_signed(prev, cur) < 0, n
            prev = cur
        words = enumerate_canonical(15)
        values = [fibc_value(w) for w in words]
        lo = values[0]
        assert values == list(range(lo, lo + len(words)))
        assert lo < 0 <= lo + len(words) - 1
        assert words == [fibc_rep(v) for v in values]


def test_criterion_9_identity_prefix_interval_relation_suites():
    with budget(9, "identity, prefix, interval and relation sweeps", 120.0):
        # Closed-form identities, exact through k = 30.
        assert all(all(row[1:]) for row in check_identities(30))

        # Neutral prefixes: binary to length 14, ternary version to length 10.
        for length in range(1, 15):
            for tup in product("01", repeat=length):
                w = "".join(tup)
                pref = "00" if w[0] == "0" else "10"
                assert fibc_value(pref + w) == fibc_value(w)
        for length in range(0, 11):
            for tup in product("012", repeat=length):
                v = "".join(tup)
                for a in "012":
                    assert fibc_value(a + "0" + a + v) == fibc_value(a + v)

        # Interval laws to length 17: canonical Zeckendorf words...
        frontier = ["1"]
        for _ in range(17):
            for w in frontier:
                assert fib(len(w) - 1) <= fib_value(w) < fib(len(w))
            frontier = [w + d for w in frontier for d in "01"
                        if not (w[-1] == d == "1")]
        # ... words without adjacent ones ...
        frontier = ["0", "1"]
        for _ in range(17):
            for w in frontier:
                n = fibc_value(w)
                if w[0] == "0":
                    assert 0 <= n < fib(len(w) - 1)
                else:
                    assert -fib(len(w) - 2) <= n < 0
            frontier = [w + d for w in frontier for d in "01"
                        if not (w[-1] == d == "1")]
        # ... and canonical complement words.
        for w in enumerate_canonical(17):
            n = fibc_value(w)
            k = (len(w) - 1) // 2
            if w == "1":
                assert n == -1
            elif w[0] == "0":
                assert fib(2 * k - 2) <= n < fib(2 * k)
            else:
                assert -fib(2 * k - 1) <= n < -fib(2 * k - 3)

        # Appending a zero to equal-value ternary pairs, to length 8.
        assert check_append_zero(8).ok

        # Output sign and plain/extended relations, suffixes to length 8.
        plain = berstel_adder()
        extended = complement_adder()
        for length in range(1, 9):
            for tup in product("012", repeat=length):
                u = "".join(tup)
                z = extended.run_with_final(u)
                assert (z[0] == "0") == (u[0] == "0"), u
        for length in range(0, 9):
            for tup in product("012", repeat=length):
                v = "".join(tup)
                assert (plain.run_with_final("0" + v)
                        == "0" + extended.run_with_final("0" + v)), v
                assert (plain.run_with_final("101" + v)
                        == "000" + extended.run_with_final("1" + v)), v
                assert (plain.run_with_final("202" + v)
                        == "001" + extended.run_with_final("2" + v)), v


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
