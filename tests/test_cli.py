import json
import sys

import pytest

from fibc.cli import main
from fibc.fibonacci import fib, fibc_value


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_convert_int_to_word(capsys):
    code, out, _ = run_cli(capsys, "convert", "--system", "fibc",
                           "--from", "int", "--", "-5")
    assert code == 0 and out.strip() == "10000"


def test_convert_word_to_int(capsys):
    code, out, _ = run_cli(capsys, "convert", "--system", "fib",
                           "--from", "word", "101010")
    assert code == 0 and out.strip() == "20"


def test_convert_twos_complement(capsys):
    code, out, _ = run_cli(capsys, "convert", "--system", "2c",
                           "--from", "word", "11100")
    assert code == 0 and out.strip() == "-4"
    code, out, _ = run_cli(capsys, "convert", "--system", "2c",
                           "--from", "int", "--", "-4")
    assert code == 0 and out.strip() == "100"


def test_convert_zero_prints_eps(capsys):
    code, out, _ = run_cli(capsys, "convert", "--system", "fib",
                           "--from", "int", "0")
    assert code == 0 and out.strip() == "eps"
    code, out, _ = run_cli(capsys, "convert", "--system", "fib",
                           "--from", "word", "eps")
    assert code == 0 and out.strip() == "0"


def test_convert_accepts_non_canonical_words(capsys):
    code, out, _ = run_cli(capsys, "convert", "--system", "fib",
                           "--from", "word", "2010202")
    assert code == 0 and out.strip() == "58"


def test_convert_beyond_int_str_limit(capsys):
    # F(30000) has over 6000 decimal digits, past Python's default limit.
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "convert", "--system", "fib",
                           "--from", "word", "1" + "0" * 30000)
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        expected = str(fib(30000))
    finally:
        sys.set_int_max_str_digits(limit)
    assert out.strip() == expected
    code, out, _ = run_cli(capsys, "convert", "--system", "fib",
                           "--from", "int", expected)
    assert code == 0 and out.strip() == "1" + "0" * 30000


def test_convert_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["convert", "--system", "fib", "--from", "int", "--", "-5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["convert", "--system", "2c", "--from", "word", "123"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["convert", "--system", "fib", "--from", "int", "notanumber"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["convert", "--system", "fibc", "--from", "word", "eps"])
    assert err.value.code == 2


def test_unknown_flags_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        main(["table", "--unknown-flag"])
    assert err.value.code == 2


def test_add_signed(capsys):
    code, out, _ = run_cli(capsys, "add", "--system", "fibc", "--", "-1", "-9")
    assert code == 0
    assert "1010101" in out and "1000101" in out   # padded operands
    assert "2010202" in out                        # digit-wise sum
    assert "100110·100" in out                     # raw transducer output
    assert "1000100" in out                        # canonical result
    assert "-10" in out


def test_add_plain_with_trace(capsys):
    code, out, _ = run_cli(capsys, "add", "--system", "fib", "--trace",
                           "33", "25")
    assert code == 0
    assert "0010110·100" in out
    assert "100000100" in out
    assert "000.0 -2/0-> 010.4" in out
    assert "100.6 -0/1-> 001.1" in out


def test_add_zero(capsys):
    code, out, _ = run_cli(capsys, "add", "--system", "fibc", "0", "0")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("0")


def test_add_fib_rejects_negative(capsys):
    with pytest.raises(SystemExit) as err:
        main(["add", "--system", "fib", "--", "-1", "2"])
    assert err.value.code == 2


def test_sub(capsys):
    code, out, _ = run_cli(capsys, "sub", "--", "3", "10")
    assert code == 0
    assert "1001001" in out
    with pytest.raises(SystemExit) as err:
        main(["sub", "--system", "fib", "5", "3"])
    assert err.value.code == 2


def test_table_text(capsys):
    code, out, _ = run_cli(capsys, "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 40
    assert "1·010" in out and "eps·000" in out


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 40
    row = dict(zip(lines[0].split(","), lines[7].split(",")))
    assert row["word"] == "10"
    assert row["signed_adder"] == "1·010"


def test_export_machine_json(capsys):
    code, out, _ = run_cli(capsys, "export-machine", "--machine", "T",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 11
    assert len(doc["transitions"]) == 33


def test_export_machine_dot(capsys):
    code, out, _ = run_cli(capsys, "export-machine", "--machine", "B",
                           "--format", "dot")
    assert code == 0
    assert '__start -> "000.0";' in out
    assert '"000.0" -> "010.4" [label="2/0"];' in out


def test_export_derived_machine(capsys):
    code, out, _ = run_cli(capsys, "export-machine", "--machine", "B",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 10
    assert len(doc["transitions"]) == 30


def test_trace_command(capsys):
    code, out, _ = run_cli(capsys, "trace", "--machine", "T", "21")
    assert code == 0
    assert "start -2/eps-> 100.6" in out
    assert "100.6 -1/1-> 010.3" in out
    assert "1·010" in out


@pytest.mark.parametrize("machine, last", [("B", "000.0"), ("T", "start")])
def test_trace_empty_word(capsys, machine, last):
    code, out, _ = run_cli(capsys, "trace", "--machine", machine, "eps")
    assert code == 0
    assert out == f"output eps·000 (last state {last})\n"


def test_enumerate_command(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "3")
    assert code == 0
    lines = [line.split("\t") for line in out.strip().splitlines()]
    assert [w for w, _ in lines] == ["100", "1", "0", "001", "010"]
    assert [int(v) for _, v in lines] == [-2, -1, 0, 1, 2]


def test_enumerate_prints_each_words_value(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "9")
    assert code == 0
    lines = [line.split("\t") for line in out.strip().splitlines()]
    assert len(lines) == fib(9)
    assert all(int(v) == fibc_value(w) for w, v in lines)


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    from fibc import cli
    from fibc.verify import CheckResult

    def fake_checks(depth):
        return [CheckResult("stub sweep", False, 5, "counterexample 210")]

    monkeypatch.setattr(cli, "run_checks", fake_checks)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "FAIL stub sweep" in out and "210" in out


def test_verify_small_depth(capsys):
    code, out, _ = run_cli(capsys, "verify", "--depth", "2")
    assert code == 0
    assert "all 21 checks passed" in out


def test_verify_depth_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--depth", "0")
    assert code == 0
