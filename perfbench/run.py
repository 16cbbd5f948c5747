"""fibc benchmark: additions by operand size and cache history, the verify
battery, set-up time, and per-module traced timings.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding `src/fibc`.  Every phase runs in a
fresh interpreter (`perfbench/worker.py`), so no workload inherits another's
Fibonacci-cache growth: a single-threaded closed loop issues each call after
the previous one returns.  Set-up is timed in several more fresh
interpreters and reported as the median.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 each phase runs once untraced and once traced, and it carries the
per-layer metrics plus the tracing overhead.  Lines before it give every
metric with its unit and sample count, the error rate and the environment;
the same report is written to `.perfbench_out/`, next to the span files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import read_spans, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((HERE / "spec.json").read_text())
RUN_BUDGET_S = 170  # the whole run must end within 180 s


class Workers:
    """Starts worker processes, one at a time, within the run's budget."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def run(self, phase: str, seconds: float = 0.0, trace: bool = False,
            spans: Path | None = None) -> dict:
        cmd = [sys.executable, "-I", str(HERE / "worker.py"), "--phase", phase,
               "--workload", self.workload, "--seed", str(self.seed),
               "--seconds", repr(seconds)]
        if trace:
            cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("run budget exhausted")
        # On timeout, subprocess.run kills the worker and waits for it.
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=timeout)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"worker {phase} exited {proc.returncode}:\n"
                               f"{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def setup(self, trace: bool) -> list[dict]:
        """One discarded probe (it may compile bytecode), then the counted ones."""
        probes = [self.run("setup", trace=trace) for _ in range(SPEC["setup_probes"] + 1)]
        return probes[1:]


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (the
    checkout need not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(setups: list[dict], phases: dict[str, dict], primary: str) -> dict:
    adds = phases["adds"]["adds"]
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "adds_per_s": (adds["adds_per_s"], "ops/s"),
        "add_p50_us": (adds["p50_us"], "us"),
        "add_p90_us": (adds["p90_us"], "us"),
        "add_p99_us": (adds["p99_us"], "us"),
        "verify_s": (statistics.median(phases["verify"]["verify"]["times_s"]), "s"),
        "peak_rss_mb": (phases[primary]["peak_rss_mb"], "MB"),
    }


def per_layer(setups: list[dict], untraced: dict[str, dict], traced: dict[str, dict],
              stats: dict[str, dict], adds_stats: dict, primary: str) -> dict:
    """Per-layer metrics from the traced phases' spans and counters."""
    counters: dict[str, int] = {}
    for out in traced.values():
        for key, value in out["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def calls(*names):
        return sum(stats.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(stats.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(name):
        return stats.get(name, {}).get("total_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    value_fns = ("fibonacci.fib_value", "fibonacci.fibc_value")
    add_fns = ("adders.add_fib", "adders.add_fibc")
    # The useful ratio is over the additions' fib_rep calls, as is_canonical_calls.
    emitted = traced["adds"]["counters"].get("zeckendorf.fib_rep_emitted", 0)
    skipped = traced["adds"]["counters"].get("zeckendorf.fib_rep_skipped", 0)
    adds_in_adds_phase = sum(adds_stats.get(n, {}).get("calls", 0) for n in add_fns)
    m = {
        "fibonacci.value_calls": (calls(*value_fns), "count"),
        "fibonacci.value_self_s": (self_s(*value_fns), "s"),
        "fibonacci.value_digits_per_s": (
            ratio(counters.get("fibonacci.value_digits", 0), self_s(*value_fns)), "digits/s"),
        "fibonacci.cache_len_start": (traced[primary]["cache_len_start"], "count"),
        "fibonacci.cache_len_end": (traced[primary]["cache_len_end"], "count"),
        "zeckendorf.fib_rep_calls": (calls("zeckendorf.fib_rep"), "count"),
        "zeckendorf.fib_rep_self_s": (self_s("zeckendorf.fib_rep"), "s"),
        "zeckendorf.normalize_self_s": (self_s("zeckendorf.normalize_fib"), "s"),
        "zeckendorf.fib_rep_useful_ratio": (ratio(emitted, emitted + skipped), "ratio"),
        "complement.fibc_rep_self_s": (self_s("complement.fibc_rep"), "s"),
        "complement.sum_words_self_s": (self_s("complement.sum_words"), "s"),
        "complement.pad_words_self_s": (self_s("complement.pad_words"), "s"),
        "complement.is_canonical_calls": (
            ratio(adds_stats.get("complement.is_canonical", {}).get("calls", 0),
                  adds_in_adds_phase), "calls/add"),
        "complement.canonicalize_self_s": (self_s("complement.canonicalize"), "s"),
        "complement.enumerate_self_s": (self_s("complement.enumerate_canonical"), "s"),
        "mealy.run_calls": (calls("mealy.MealyMachine.run"), "count"),
        "mealy.run_self_s": (self_s("mealy.MealyMachine.run"), "s"),
        "mealy.symbols": (counters.get("mealy.symbols", 0), "count"),
        "mealy.symbols_per_s": (
            ratio(counters.get("mealy.symbols", 0), self_s("mealy.MealyMachine.run")),
            "symbols/s"),
        "adders.add_calls": (calls(*add_fns), "count"),
        "adders.add_self_s": (self_s(*add_fns), "s"),
        "adders.build_s": (statistics.median(p["build_s"] for p in setups), "s"),
        "derivation.derive_adder_s": (
            statistics.median(p["derive_adder_s"] for p in setups), "s"),
        "derivation.translate_nodes": (counters.get("derivation.translate_nodes", 0), "count"),
        "derivation.translate_s": (total_s("derivation.translate_tree"), "s"),
    }
    for fn, _, _ in SPEC["verify_checks"]:
        m[f"verify.{fn}.s"] = (total_s(f"verify.{fn}"), "s")
        m[f"verify.{fn}.instances"] = (counters.get(f"verify.{fn}.instances", 0), "count")
    m["cli.self_s"] = (total_s("cli.main") - total_s("verify.run_checks"), "s")
    m["trace.adds_per_s_overhead"] = (
        traced["adds"]["adds"]["adds_per_s"] - untraced["adds"]["adds"]["adds_per_s"], "ops/s")
    m["trace.verify_s_overhead"] = (
        statistics.median(traced["verify"]["verify"]["times_s"])
        - statistics.median(untraced["verify"]["verify"]["times_s"]), "s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fibc" / "__init__.py").is_file():
        print(f"error: no fibc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    workload = SPEC["workloads"][args.workload]
    primary = workload["phases"][0][0]
    workers = Workers(args.workload, args.seed)
    setups = workers.setup(trace=bool(args.trace))
    untraced: dict[str, dict] = {}
    traced: dict[str, dict] = {}
    stats: dict[str, dict] = {}
    adds_stats: dict = {}
    for phase, share in workload["phases"]:
        untraced[phase] = workers.run(phase, share * args.seconds)
        if not args.trace:
            continue
        path = OUT / f"spans-{args.workload}-{phase}.bin"
        traced[phase] = workers.run(phase, trace=True, spans=path)
        phase_stats = summarize(read_spans(str(path)))
        if phase == "adds":
            adds_stats = phase_stats
        for name, s in phase_stats.items():
            merged = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in merged:
                merged[key] += s[key]

    outs = list(untraced.values()) + list(traced.values())
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    fresh = all(o["cache_len_start"] == 2 for o in outs) and all(
        p["cache_len"] == 2 for p in setups)
    if args.trace:
        metrics = per_layer(setups, untraced, traced, stats, adds_stats, primary)
    else:
        metrics = end_to_end(setups, untraced, primary)

    verify_out = untraced["verify"]["verify"]
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "commit": git_commit(), "verify_depth": verify_out["depth"],
           "verify_instances": verify_out["instances"]}
    adds_out = untraced["adds"]["adds"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "error_rate": failed / attempted, "attempted": attempted, "failed": failed,
        "fresh_cache_at_start": fresh,
        "first_failures": [o["first_failure"] for o in outs if o["first_failure"]],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "workers": {"setup": setups, "untraced": untraced, "traced": traced},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")

    print(f"fibc benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"samples: {adds_out['calls']} additions, {len(verify_out['times_s'])} verify "
          f"batteries, {len(setups)} set-ups; Fibonacci cache fresh at start: {fresh}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<40} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<40} {failed / attempted:>16.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    for failure in report["first_failures"]:
        print(f"  failure: {failure}")
    print(json.dumps({
        "correct": failed == 0 and fresh, "attempted": attempted, "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
