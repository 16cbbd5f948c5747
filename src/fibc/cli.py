"""Command-line front end: conversion, transducer addition, the behavior
table, machine export, traces and the verification battery.  `add` and
`sub` print the stages that the library's own addition pipeline returns.

Words print most significant digit first; the empty word prints as "eps".
Exit codes: 0 on success, 1 when a verification or derivation check fails,
2 on usage errors, 141 (as for SIGPIPE) when the reader closes stdout
early.  Use "--" before negative numbers, e.g.
`fibc add --system fibc -- -1 -9`.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .adders import (_addition, _output_final, adder_table, berstel_adder,
                     complement_adder, format_table_csv, format_table_text)
from .complement import _digit_sum, enumerate_canonical, fibc_rep
from .fibonacci import (fib_value, fibc_value, twos_complement_rep,
                        twos_complement_value)
from .mealy import MealyMachine, TraceStep
from .verify import run_checks
from .zeckendorf import fib_rep


def _show(word: str) -> str:
    return word or "eps"


def _read_word(text: str) -> str:
    return "" if text == "eps" else text


_MACHINES = {"B": berstel_adder, "T": complement_adder}
_SYSTEMS = {  # system -> (representation, value)
    "fib": (fib_rep, fib_value),
    "fibc": (fibc_rep, fibc_value),
    "2c": (twos_complement_rep, twos_complement_value),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibc",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"fibc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between integers and words")
    p.set_defaults(handler=_cmd_convert)
    p.add_argument("--system", choices=tuple(_SYSTEMS), required=True)
    p.add_argument("--from", dest="source", choices=("int", "word"), required=True)
    p.add_argument("value")

    for name, help_text in (("add", "add two integers through the transducer"),
                            ("sub", "subtract two integers through the transducer")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=_cmd_add, negate_b=name == "sub")
        systems = ("fib", "fibc") if name == "add" else ("fibc",)
        p.add_argument("--system", choices=systems, required=name == "add",
                       default="fibc")
        p.add_argument("--trace", action="store_true",
                       help="show the state-by-state path")
        p.add_argument("a")
        p.add_argument("b")

    p = sub.add_parser("table", help="behavior table for all short ternary words")
    p.set_defaults(handler=_cmd_table)
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("export-machine", help="write a machine as DOT or JSON")
    p.set_defaults(handler=_cmd_export_machine)
    p.add_argument("--machine", choices=tuple(_MACHINES), required=True)
    p.add_argument("--format", choices=("dot", "json"), default="dot")

    p = sub.add_parser("trace", help="run a machine on a word, step by step")
    p.set_defaults(handler=_cmd_trace)
    p.add_argument("--machine", choices=tuple(_MACHINES), default="B")
    p.add_argument("word")

    p = sub.add_parser("enumerate",
                       help="canonical complement words up to a length, by value")
    p.set_defaults(handler=_cmd_enumerate)
    p.add_argument("max_len", type=int)

    p = sub.add_parser("verify", help="run the verification battery")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--depth", type=int, default=8,
                   help="word sweep length; integer sweeps scale as 300*depth/8")

    return parser


def _cmd_convert(args: argparse.Namespace) -> int:
    rep, value = _SYSTEMS[args.system]
    if args.source == "int":
        print(_show(rep(int(args.value))))
    else:
        print(value(_read_word(args.value)))
    return 0


def _print_trace(machine: MealyMachine, word: str, indent: str) -> list[TraceStep]:
    steps = machine.trace(word)
    for s in steps:
        print(f"{indent}{s.state} -{s.symbol}/{_show(s.output)}-> {s.next_state}")
    return steps


def _cmd_add(args: argparse.Namespace) -> int:
    m, shown_n = int(args.a), int(args.b)
    n = -shown_n if args.negate_b else shown_n
    signed = args.system == "fibc"
    rep, value_of = _SYSTEMS[args.system]
    u, v, raw, result = _addition(rep(m), rep(n), signed)
    total = _digit_sum(u, v)  # shown only: the adder reads it from u and v
    value = value_of(result)

    op = "-" if args.negate_b else "+"
    width = max(len(str(m)), len(str(shown_n)), len(str(value))) + 2
    print(f"  {m:>{width}}  {_show(u)}")
    print(f"{op} {shown_n:>{width}}  {_show(v)}")
    print(f"  {'sum':>{width}}  {_show(total)}")
    if args.trace:
        _print_trace(_MACHINES["T" if signed else "B"](), total, " " * (width + 4))
    print(f"  {'raw':>{width}}  {_output_final(raw)}")
    print(f"= {value:>{width}}  {_show(result)}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    rows = adder_table()
    text = format_table_csv(rows) if args.format == "csv" else format_table_text(rows)
    sys.stdout.write(text)
    return 0


def _cmd_export_machine(args: argparse.Namespace) -> int:
    machine = _MACHINES[args.machine]()
    sys.stdout.write(machine.to_dot() if args.format == "dot" else machine.to_json())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    machine = _MACHINES[args.machine]()
    steps = _print_trace(machine, _read_word(args.word), "")
    last = steps[-1].next_state if steps else machine.initial
    raw = "".join(s.output for s in steps) + machine.final_words[last]
    print(f"output {_output_final(raw)} (last state {last})")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    words = enumerate_canonical(args.max_len)
    low = fibc_value(words[0])  # the words represent a contiguous interval
    for i, word in enumerate(words):
        print(f"{word}\t{low + i}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks(args.depth)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.ok]
    total = sum(r.checked for r in results)
    if failed:
        print(f"FAILED {len(failed)} of {len(results)} checks "
              f"({total} instances)")
        return 1
    print(f"all {len(results)} checks passed ({total} instances)")
    return 0


def main(argv: list[str] | None = None) -> int:
    # Python's int <-> decimal string limit (4300 digits) would turn large
    # valid operands into usage errors; lift it for this call only.
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: list[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # so a closed pipe fails here and not at exit
        return status
    except BrokenPipeError:
        # Point fd 1 at devnull so that the exit-time flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        parser.error(str(exc))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
