import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fibc.adders import berstel_adder, complement_adder
from fibc.cli import main
from fibc.complement import _digit_sum
from fibc.fibonacci import fib, fib_value, fibc_value
from fibc.mealy import MealyMachine


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


LONG_A, LONG_B, LONG_C = 10**3000 + 12345, -10**3000 + 678, 10**3000 - 99


@pytest.mark.parametrize("system, a, b", [
    ("fib", LONG_A, LONG_C), ("fibc", LONG_A, LONG_B),
    ("fibc", LONG_B, LONG_B), ("fibc", LONG_B, LONG_C),
])
def test_add_raw_line_on_long_words(capsys, system, a, b):
    code, out, _ = run_cli(capsys, "add", "--system", system, "--", str(a), str(b))
    assert code == 0
    lines = [line.split() for line in out.splitlines()]
    u, v, (_, total), (_, raw) = lines[0][-1], lines[1][-1], lines[2], lines[3]
    assert len(u) > 14_000 and total == _digit_sum(u, v)
    # The oracle: output·final read off a step-by-step run of the sum.
    machine = complement_adder() if system == "fibc" else berstel_adder()
    steps = machine.trace(total)
    output = "".join(s.output for s in steps)
    assert raw == f"{output}·{machine.final_words[steps[-1].next_state]}"
    value = fibc_value if system == "fibc" else fib_value
    assert value(raw.replace("·", "")) == a + b


@pytest.mark.parametrize("extra", [(), ("--trace",)])
def test_add_runs_the_adder_once(capsys, monkeypatch, extra):
    lengths = []
    trace = MealyMachine.trace

    def recording_trace(self, word, start=None):
        lengths.append(len(word))
        return trace(self, word, start)

    monkeypatch.setattr(MealyMachine, "trace", recording_trace)
    code, out, _ = run_cli(capsys, "add", "--system", "fibc", *extra,
                           "--", str(LONG_A), str(LONG_B))
    assert code == 0
    long_words = [n for n in lengths if n > 4]  # shorter ones fill run's memo
    if extra:
        assert long_words == [len(out.splitlines()[2].split()[-1])]
    else:
        assert long_words == []


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


@pytest.mark.parametrize("machine, fmt, digest", [
    ("B", "dot", "da045ef0e8a67090a7b7879ef1a11eca80481dcba84deb583058347e1424cfb7"),
    ("B", "json", "a5abd3837998d0502665c076941c6ecf8e3b38e79e9e7ce353de796e7307b033"),
    ("T", "dot", "19aa03652fed35a1d0fbef5a63b3434cbb165ae8a1ee77e7c6455ce1782942d9"),
    ("T", "json", "1a826561f1db9d3fba7f22add217cf0a1167bd2f1f046c21067f100e7fc62e9a"),
])
def test_export_machine_text_is_pinned(capsys, machine, fmt, digest):
    # The whole text, state order included, byte for byte.
    code, out, _ = run_cli(capsys, "export-machine", "--machine", machine,
                           "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_closed_stdout_exits_141_without_a_traceback():
    # 196,418 lines, far past a pipe buffer: the child is still writing when
    # the reader closes the pipe after one line.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen([sys.executable, "-m", "fibc.cli", "enumerate", "25"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env={**os.environ, "PYTHONPATH": path})
    try:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    finally:
        child.kill()
        child.stderr.close()
    assert first == b"1000000000000000000000000\t-75025\n"
    assert err == b""
    assert code == 141


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    from fibc import cli
    from fibc.verify import CheckResult

    def fake_checks(depth):
        return [CheckResult("stub sweep", False, 5, "counterexample 210")]

    monkeypatch.setattr(cli, "run_checks", fake_checks)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "FAIL stub sweep" in out and "210" in out


def test_runtime_error_exits_1_with_message(capsys, monkeypatch):
    from fibc import cli

    def broken_checks(depth):
        raise RuntimeError("expected 10 reachable classes, found 11")

    monkeypatch.setattr(cli, "run_checks", broken_checks)
    code, out, err = run_cli(capsys, "verify", "--depth", "0")
    assert code == 1
    assert out == ""
    assert err == "error: expected 10 reachable classes, found 11\n"


def test_verify_depth_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--depth", "0")
    assert code == 0
    lengths = [int(n) for n in re.findall(r"length (-?\d+)", out)]
    assert len(lengths) == 17 and min(lengths) == 0


def test_verify_depth_3_output_is_pinned(capsys):
    # Every line byte for byte, details included, not only names and counts.
    code, out, _ = run_cli(capsys, "verify", "--depth", "3")
    assert code == 0
    assert out == (Path(__file__).parent / "verify_depth_3.txt").read_text()


# Full stdout of the commands that print a run's parts, byte for byte.
GOLDEN_ADD_FIB_TRACE = """\
    33  1010101
+   25  1000101
   sum  2010202
        000.0 -2/0-> 010.4
        010.4 -0/0-> 101.6
        101.6 -1/1-> 010.4
        010.4 -0/0-> 101.6
        101.6 -2/1-> 100.6
        100.6 -0/1-> 001.1
        001.1 -2/0-> 100.6
   raw  0010110·100
=   58  100000100
"""

GOLDEN_ADD_FIBC_TRACE = """\
     -1  1010101
+    -9  1000101
    sum  2010202
         start -2/eps-> 100.6
         100.6 -0/1-> 001.1
         001.1 -1/0-> 010.4
         010.4 -0/0-> 101.6
         101.6 -2/1-> 100.6
         100.6 -0/1-> 001.1
         001.1 -2/0-> 100.6
    raw  100110·100
=   -10  1000100
"""

GOLDEN_SUB = """\
     3  0000100
-   10  1000100
   sum  1000200
   raw  101001·001
=   -7  1001001
"""

GOLDEN_TRACE_T = """\
start -2/eps-> 100.6
100.6 -0/1-> 001.1
001.1 -1/0-> 010.4
010.4 -0/0-> 101.6
101.6 -2/1-> 100.6
100.6 -0/1-> 001.1
001.1 -2/0-> 100.6
output 100110·100 (last state 100.6)
"""

GOLDEN_TABLE_CSV = """\
word,fib_value,fib_adder,fib_adder_value,fibc_value,signed_adder,signed_adder_value
0,0,0·000,0,0,eps·000,0
1,1,0·001,1,-1,eps·101,-1
2,2,0·010,2,-2,eps·100,-2
00,0,00·000,0,0,0·000,0
01,1,00·001,1,1,0·001,1
02,2,00·010,2,2,0·010,2
10,2,00·010,2,-1,1·010,-1
11,3,00·100,3,0,1·100,0
12,4,00·101,4,1,1·101,1
20,4,00·101,4,-2,1·001,-2
21,5,01·000,5,-1,1·010,-1
22,6,01·001,6,0,1·100,0
000,0,000·000,0,0,00·000,0
001,1,000·001,1,1,00·001,1
002,2,000·010,2,2,00·010,2
010,2,000·010,2,2,00·010,2
011,3,000·100,3,3,00·100,3
012,4,000·101,4,4,00·101,4
020,4,000·101,4,4,00·101,4
021,5,001·000,5,5,01·000,5
022,6,001·001,6,6,01·001,6
100,3,000·100,3,-2,10·100,-2
101,4,000·101,4,-1,10·101,-1
102,5,001·000,5,0,11·000,0
110,5,001·000,5,0,11·000,0
111,6,001·001,6,1,11·001,1
112,7,001·010,7,2,11·010,2
120,7,001·010,7,2,11·010,2
121,8,001·100,8,3,11·100,3
122,9,001·101,9,4,11·101,4
200,6,001·001,6,-4,10·001,-4
201,7,001·010,7,-3,10·010,-3
202,8,001·100,8,-2,10·100,-2
210,8,010·000,8,-2,10·100,-2
211,9,010·001,9,-1,10·101,-1
212,10,010·010,10,0,11·000,0
220,10,010·010,10,0,11·000,0
221,11,010·100,11,1,11·001,1
222,12,010·101,12,2,11·010,2
"""


@pytest.mark.parametrize("argv, expected", [
    (("add", "--system", "fib", "--trace", "33", "25"), GOLDEN_ADD_FIB_TRACE),
    (("add", "--system", "fibc", "--trace", "--", "-1", "-9"), GOLDEN_ADD_FIBC_TRACE),
    (("sub", "--", "3", "10"), GOLDEN_SUB),
    (("trace", "--machine", "T", "2010202"), GOLDEN_TRACE_T),
    (("table", "--format", "csv"), GOLDEN_TABLE_CSV),
], ids=["add-fib-trace", "add-fibc-trace", "sub", "trace-T", "table-csv"])
def test_golden_stdout(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected
