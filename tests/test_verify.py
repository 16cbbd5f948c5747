import json
from pathlib import Path

import pytest

from fibc.adders import berstel_adder, complement_adder
from fibc.mealy import MealyMachine
from fibc import verify

SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "spec.json"


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


def test_all_checks_pass_at_small_depth():
    results = verify.run_checks(4)
    assert all(r.ok for r in results), [r.line() for r in results if not r.ok]


def test_depth_zero_is_vacuous_pass():
    results = verify.run_checks(0)
    assert all(r.ok for r in results)
    identities = next(r for r in results if r.name == "fibonacci identities")
    assert identities.checked == 1  # only k = 1


def test_corrupted_machine_is_caught_with_counterexample():
    result = verify.fib_adder_value_check(4, machine=corrupted_adder())
    assert not result.ok
    assert "counterexample" in result.detail
    # The reported word must actually witness the failure.
    word = result.detail.split()[-1]
    bad = corrupted_adder().run(word)
    from fibc.fibonacci import fib_value
    assert fib_value(bad) != fib_value(word)


def test_check_lines_are_printable():
    for result in verify.run_checks(2):
        line = result.line()
        assert result.name in line
        assert line.startswith("ok") or line.startswith("FAIL")


def test_corrupted_extended_adder_is_caught_at_first_counterexample():
    # The correct target of ("start", "1") is 101.7; the word "1" is the
    # second one swept, after "0".
    broken = rerouted(complement_adder(), "start", "1", "000.0")
    for check in (verify.complement_adder_value_check, verify.first_letter_check):
        result = check(4, machine=broken)
        assert not result.ok
        assert result.detail == "counterexample 1"
        assert result.checked == 2


def test_battery_counts_match_the_benchmark_pins():
    spec = json.loads(SPEC.read_text())
    results = verify.run_checks(spec["verify_depth"])
    assert all(r.ok for r in results), [r.line() for r in results if not r.ok]
    assert [(r.name, r.checked) for r in results] == [
        (name, count) for _, name, count in spec["verify_checks"]]
    assert all(callable(getattr(verify, fn)) for fn, _, _ in spec["verify_checks"])


def test_complement_round_trip_reports_the_odd_length_it_sweeps():
    result = verify.complement_roundtrip_check(300, 8)
    assert result.ok
    assert result.detail == "integers to +-300, words to length 7"
    assert result.checked == 601 + 34  # the canonical words to length 7


def test_order_check_names_a_swap_in_the_representation(monkeypatch):
    # fibc_rep with the words of 3 and 4 swapped: the integer sweep fails
    # at n = 4; with no integers to sweep, the enumeration fails at the
    # word of 3, which fibc_rep(3) no longer returns.
    from fibc import complement
    rep = complement.fibc_rep
    swapped = {3: 4, 4: 3}
    monkeypatch.setattr(complement, "fibc_rep", lambda n: rep(swapped.get(n, n)))
    for radius, detail in ((10, "counterexample n=4"), (0, f"counterexample {rep(3)} at n=3")):
        result = verify.order_check(radius, 5)
        assert not result.ok
        assert result.detail == detail


def test_derivation_check_reports_states_without_a_carry(monkeypatch):
    # The signed adder has 11 states, one of them "start", which is not
    # named triple.carry: a failed check, not an IndexError.
    from fibc import derivation
    monkeypatch.setattr(derivation, "derive_adder", complement_adder)
    result = verify.derivation_check(3)
    assert not result.ok
    assert result.detail == "counterexample 11 states"
    assert result.checked == 1


def test_run_checks_rejects_negative_depth():
    with pytest.raises(ValueError, match="nonnegative"):
        verify.run_checks(-1)


def test_order_check_fails_at_once_on_a_wrong_zero(monkeypatch):
    from fibc import complement
    rep = complement.fibc_rep
    monkeypatch.setattr(complement, "fibc_rep", lambda n: rep(n) if n else "000")
    result = verify.order_check(10, 5)
    assert result == ("value-ordered representations", False, 0, "counterexample rep(0)")
