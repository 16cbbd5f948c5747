import sys
from functools import cache
from pathlib import Path

import pytest

from fibc import adders, complement, derivation, fibonacci, verify, zeckendorf
from fibc.adders import berstel_adder, complement_adder
from fibc.derivation import translate_tree
from fibc.fibonacci import fib, fib_value
from fibc.mealy import MealyMachine

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from worker import LINE, SPEC  # noqa: E402


def rerouted(m, src, a, dst):
    """m with the transition from src on a sent to dst instead."""
    transitions = [(s, b, out, dst if (s, b) == (src, a) else d)
                   for s, b, out, d in m.sorted_transitions()]
    return MealyMachine(
        states=m.states, initial=m.initial, transitions=transitions,
        final_words=dict(m.final_words),
    )


def corrupted_adder():
    """The plain adder with a single transition rerouted."""
    return rerouted(berstel_adder(), "010.4", "1", "001.2")  # correct target is 000.0


@cache
def broken_extended_adder():
    """The extended adder with its start transition on 1 rerouted."""
    return rerouted(complement_adder(), "start", "1", "000.0")  # correct target is 101.7


def swapped(rep):
    """rep with the words of 3 and 4 swapped."""
    return lambda n: rep({3: 4, 4: 3}.get(n, n))


def test_all_checks_pass_at_small_depth():
    # The five checks of run_checks(4) that no other test runs on this
    # domain or a larger one, with the arguments it gives them: the
    # acceptance criteria, test_derivation and the complement round trip
    # below cover the other sixteen.
    results = [verify.value_relation_check(4), verify.twos_prefix_check(4),
               verify.zeckendorf_roundtrip_check(300, 4),
               verify.zeckendorf_monotone_check(300), verify.normalize_check(4)]
    assert all(r.ok for r in results), [r.line() for r in results if not r.ok]


def test_depth_zero_is_vacuous_pass():
    results = verify.run_checks(0)
    assert all(r.ok for r in results)
    identities = next(r for r in results if r.name == "fibonacci identities")
    assert identities.checked == 1  # only k = 1


def test_corrupted_machine_is_caught_with_counterexample(monkeypatch):
    monkeypatch.setattr(adders, "berstel_adder", corrupted_adder)
    result = verify.fib_adder_value_check(4)
    assert not result.ok
    assert "counterexample" in result.detail
    # The reported word must actually witness the failure.
    word = result.detail.split()[-1]
    bad = corrupted_adder().run(word)
    assert fib_value(bad) != fib_value(word)


def test_corrupted_extended_adder_is_caught_at_first_counterexample(monkeypatch):
    # The word "1" is the second one swept, after "0".
    monkeypatch.setattr(adders, "complement_adder", broken_extended_adder)
    for check in (verify.complement_adder_value_check, verify.first_letter_check):
        result = check(4)
        assert not result.ok
        assert result.detail == "counterexample 1"
        assert result.checked == 2


def test_battery_counts_match_the_benchmark_pins():
    # The pinned depth-3 text, which test_verify_depth_3_output_is_pinned
    # compares with a live run, read the way the benchmark reads it; its
    # last line is the summary.
    text = (Path(__file__).parent / "verify_depth_3.txt").read_text()
    lines = [LINE.match(line) for line in text.splitlines()[:-1]]
    assert all(m and m[1] == "ok  " for m in lines)
    assert [(m[2], int(m[3])) for m in lines] == [
        (name, count) for _, name, count in SPEC["verify_checks"]]
    assert SPEC["verify_depth"] == 3
    assert all(callable(getattr(verify, fn)) for fn, _, _ in SPEC["verify_checks"])


def test_complement_round_trip_reports_the_odd_length_it_sweeps():
    result = verify.complement_roundtrip_check(300, 8)
    assert result.ok
    assert result.detail == "integers to +-300, words to length 7"
    assert result.checked == 601 + 34  # the canonical words to length 7


def test_order_check_names_a_swap_in_the_representation(monkeypatch):
    # fibc_rep with the words of 3 and 4 swapped: the integer sweep fails
    # at n = 4; with no integers to sweep, the enumeration fails at the
    # word of 3, which fibc_rep(3) no longer returns.
    rep = complement.fibc_rep
    monkeypatch.setattr(complement, "fibc_rep", swapped(rep))
    for radius, detail in ((10, "counterexample n=4"), (0, f"counterexample {rep(3)} at n=3")):
        result = verify.order_check(radius, 5)
        assert not result.ok
        assert result.detail == detail


def test_derivation_check_reports_states_without_a_carry(monkeypatch):
    # The signed adder has 11 states, one of them "start", which is not
    # named triple.carry: a failed check, not an IndexError.
    monkeypatch.setattr(derivation, "derive_adder", complement_adder)
    result = verify.derivation_check(3)
    assert not result.ok
    assert result.detail == "counterexample 11 states"
    assert result.checked == 1


def test_run_checks_rejects_negative_depth():
    with pytest.raises(ValueError, match="nonnegative"):
        verify.run_checks(-1)


def test_order_check_fails_at_once_on_a_wrong_zero(monkeypatch):
    rep = complement.fibc_rep
    monkeypatch.setattr(complement, "fibc_rep", lambda n: rep(n) if n else "000")
    result = verify.order_check(10, 5)
    assert result == ("value-ordered representations", False, 0, "counterexample rep(0)")


def last_digit_weighs_2(w):
    """fib_value with the last digit weighed F(1) = 2, not F(0) = 1."""
    return fib_value(w) + int(w[-1:] or "0")


def carry_raised_at_0(max_len):
    """translate_tree with the word 0 moved from class 000.0 to 000.1."""
    for word, tr in translate_tree(max_len):
        yield word, tr._replace(carry=tr.carry + 1) if word == "0" else tr


# One row for each check that no test above breaks: the check and its
# arguments, the function patched and its broken stand-in, then the exact
# instance count and counterexample of the failure.  fibc_value -> fib_value
# drops the sign weight of the leading digit.
FAULTS = [
    (verify.identities_check, (30,), fibonacci, "fib", lambda n: fib(n) + (n == 4),
     2, "counterexample k=2 flags=(False, True, True)"),
    (verify.value_relation_check, (8,), fibonacci, "fibc_value", fib_value,
     2, "counterexample 1"),
    (verify.twos_prefix_check, (8,), fibonacci, "twos_complement_value", lambda w: int(w, 2),
     1, "counterexample (empty)"),  # the empty suffix
    (verify.zeckendorf_roundtrip_check, (100, 10), zeckendorf, "fib_rep",
     swapped(zeckendorf.fib_rep), 4, "counterexample n=3"),
    (verify.zeckendorf_monotone_check, (100,), zeckendorf, "fib_rep",
     swapped(zeckendorf.fib_rep), 4, "counterexample n=4"),
    (verify.normalize_check, (8,), zeckendorf, "normalize_fib", lambda w: w,
     1, "counterexample 0"),
    (verify.complement_roundtrip_check, (10, 7), complement, "fibc_rep",
     swapped(complement.fibc_rep), 14, "counterexample n=3"),
    (verify.neutral_prefix_check, (14,), complement, "neutral_prefix", lambda w: w[0] + "1",
     1, "counterexample 0"),
    (verify.generalized_neutral_check, (10,), fibonacci, "fibc_value", fib_value,
     2, "counterexample 1|"),
    (verify.zeckendorf_interval_check, (20,), fibonacci, "fib_value", last_digit_weighs_2,
     1, "counterexample 1"),
    (verify.sign_split_check, (17,), fibonacci, "fibc_value", fib_value,
     2, "counterexample 1"),
    (verify.canonical_interval_check, (17,), fibonacci, "fibc_value", fib_value,
     1, "counterexample 1" + "0" * 16),
    (verify.adder_relation_check, (8,), adders, "complement_adder", broken_extended_adder,
     2, "counterexample 101|"),
    (verify.append_zero_check, (8,), fibonacci, "fib_value", last_digit_weighs_2,
     8, "counterexample ('i', '02', '20', -2)"),
    (verify.class_inheritance_check, (6,), derivation, "translate_tree", carry_raised_at_0,
     5, "counterexample 00"),
    (verify.addition_check, (300,), adders, "complement_adder", broken_extended_adder,
     301, "counterexample -300+0"),
]


@pytest.mark.parametrize("check, args, owner, name, broken, checked, detail", FAULTS,
                         ids=[row[0].__name__ for row in FAULTS])
def test_each_check_fails_when_its_law_breaks(monkeypatch, check, args, owner, name,
                                              broken, checked, detail):
    monkeypatch.setattr(owner, name, broken)
    assert check(*args)[1:] == (False, checked, detail)
