"""One benchmark phase in a fresh interpreter.

    python3 -I perfbench/worker.py --phase adds|verify|setup --workload NAME
        --seed N --seconds S [--trace --spans PATH]

`adds` runs closed-loop additions (one call issued after the previous one
returns) with the workload's operand sizes; `verify` runs
`fibc.cli.main(["verify", "--depth", D])` with stdout captured; `setup`
times `import fibc` plus the first adder builds.  With --trace the phase
runs traced and writes its spans to --spans (set-up keeps them in memory).
The last stdout line is a JSON summary for run.py.  Outputs are checked
outside the timed calls.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import re
import resource
import signal
import statistics
import sys
import time
from array import array
from itertools import count
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]  # -I leaves both off sys.path

import oracle  # noqa: E402
from tracer import Tracer, bump, summarize  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text())
WINDOW_S = 0.05  # busy seconds per measurement window, at least
BLOCK = 1000  # calls per percentile block: ten lie beyond its p99
MODULES = ("fibonacci", "zeckendorf", "complement", "mealy", "adders",
           "derivation", "verify", "cli")
LINE = re.compile(r"^(ok  |FAIL) (.+?): .* \((\d+) instances\)$")


def import_fibc():
    fibc = importlib.import_module("fibc")
    if not Path(fibc.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"fibc imported from {fibc.__file__}, not from {SRC}")
    return fibc, [fibc] + [importlib.import_module(f"fibc.{m}") for m in MODULES]


def install_tracer(fibc, modules) -> Tracer:
    """Wrap every public fibc callable, with the counters the per-layer
    metrics need (digits, symbols, cache entries skipped, instances)."""
    fibs = fibc.fibonacci._FIBS

    def fib_rep(c, args, w):
        bump(c, "zeckendorf.fib_rep_emitted", len(w))
        if w:  # fib_rep(0) returns before scanning the cache
            bump(c, "zeckendorf.fib_rep_skipped", len(fibs) - len(w))

    def value(c, args, _):
        bump(c, "fibonacci.value_digits", len(args[0]))

    def run(c, args, _):
        bump(c, "mealy.symbols", len(args[1]))

    def node(c, args, _):
        bump(c, "derivation.translate_nodes", 1)

    def check(name):
        return lambda c, args, r: bump(c, f"{name}.instances", r.checked)

    hooks = {"zeckendorf.fib_rep": fib_rep, "fibonacci.fib_value": value,
             "fibonacci.fibc_value": value, "mealy.MealyMachine.run": run,
             "derivation.translate_tree": node}
    for name in vars(fibc.verify):
        if name.endswith("_check"):
            hooks[f"verify.{name}"] = check(f"verify.{name}")
    tracer = Tracer()
    tracer.install(modules, hooks)
    return tracer


# Big ints of 160 to 320 bytes for the reference loop to scan, as fib_rep
# scans fibc's Fibonacci cache: memory-bound code slows more than
# interpreter-bound code when other tenants contend for the caches.
REFERENCE_INTS = [3 ** (1000 + i % 1000) for i in range(3000)]


def reference_pass_s(passes: int) -> float:
    """Seconds per pass of a fixed pure-Python loop that runs no fibc code
    (about 0.3 ms a pass): the machine's speed at this moment.  A pass does
    small-int and string work, then compares every REFERENCE_INTS entry."""
    t0 = time.perf_counter()
    for _ in range(passes):
        s = 0
        for i in range(1000):
            s += len(str(i)) + (i & 7)
        for x in REFERENCE_INTS:
            if x > s:
                s += 1
    return (time.perf_counter() - t0) / passes


class Speed:
    """Factors that convert measured time to time at the reference speed.

    Other tenants of this shared machine slow it by up to half, for
    stretches of seconds to minutes.  Each measured interval is therefore
    multiplied by the reference loop's nominal pass time over its mean pass
    time around the interval: from bursts just before and just after, and,
    for intervals too long for that, from bursts taken during it.
    """

    def __init__(self, passes: int):
        self.passes = passes
        self.before = reference_pass_s(passes)
        self.during: list[float] = []
        self.paused_s = 0.0  # time the bursts during the interval took
        self.factors: list[float] = []

    @contextlib.contextmanager
    def sampling(self, every_s: float):
        """Also take a short burst every `every_s` seconds inside the block,
        from a SIGALRM handler; subtract paused_s from the block's time."""
        def burst(signum, frame):
            t0 = time.perf_counter()
            self.during.append(reference_pass_s(15))
            self.paused_s += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, burst)
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """Factor for the interval since the previous call (or creation)."""
        after = reference_pass_s(self.passes)
        passes = [self.before, after, *self.during]
        f = SPEC["reference_pass_s"] / (sum(passes) / len(passes))
        self.before = after
        self.during = []
        self.paused_s = 0.0
        self.factors.append(f)
        return f

    def summary(self) -> dict:
        return {"median": statistics.median(self.factors), "min": min(self.factors),
                "max": max(self.factors), "intervals": len(self.factors)}


def operations(workload: dict, seed: int):
    """Endless (kind, m, n) stream for the workload, from the seed.

    Within each size class, ops cycle add_fibc, add_fibc, add_fibc, add_fib.
    `mixed` makes every `big_every`-th op big and the rest small.
    """
    rng = random.Random(seed)
    small = SPEC["operands"]["small"]["bound"]
    big = None
    sizes = workload["sizes"]
    every = workload.get("big_every", 0)
    issued = {"small": 0, "big": 0}
    for pos in count():
        size = sizes
        if sizes == "mixed":
            size = "big" if pos % every == every - 1 else "small"
        kind = "fib" if issued[size] % 4 == 3 else "fibc"
        issued[size] += 1
        if size == "small":
            lo = 0 if kind == "fib" else -small
            yield kind, size, rng.randint(lo, small), rng.randint(lo, small)
        else:
            big = big or oracle.fib(SPEC["operands"]["big"]["fib_index"])
            m, n = rng.randrange(big), rng.randrange(big)
            if kind == "fibc":
                m, n = m * rng.choice((1, -1)), n * rng.choice((1, -1))
            yield kind, size, m, n


def percentiles(latencies: list[float]) -> list[float]:
    """p50, p90 and p99 of one block."""
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return [cuts[49], cuts[89], cuts[98]]


def adds_phase(fibc, workload, seed, seconds, tracer):
    """Closed-loop additions, each timed alone and checked after it returns.

    Untraced, the phase runs for `seconds` and at least min_add_calls calls;
    traced, it makes exactly the workload's traced_ops calls, so span counts
    and self times compare across commits.

    Calls are grouped into windows of at least WINDOW_S busy seconds, and
    each window's latencies are scaled by its Speed factor.  Percentiles are
    taken over each block of BLOCK consecutive calls (the last block also
    takes the calls left over), and the median over blocks is reported, so a
    stretch of heavy contention moves one block, not the result."""
    adders = fibc.adders
    checks = {"fib": oracle.check_fib_sum, "fibc": oracle.check_fibc_sum}
    speed = Speed(passes=15)
    window = array("q")
    window_ns = 0
    block: list[float] = []
    last_full: list[float] = []
    blocks: list[list[float]] = []  # p50, p90, p99 of each full block, in ns
    scaled_ns = 0.0
    by_size = {"small": [0, 0], "big": [0, 0]}  # calls, measured busy ns
    failed = 0
    first_failure = None
    min_calls = SPEC["min_add_calls"]
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    for pos, (kind, size, m, n) in enumerate(operations(workload, seed)):
        fn = adders.add_fib if kind == "fib" else adders.add_fibc
        if tracer is not None:
            tracer.op_id = pos
        t0 = time.perf_counter_ns()
        try:
            w = fn(m, n)
        except Exception as exc:  # counted as a failed operation
            w = exc
        t1 = time.perf_counter_ns()
        if not checks[kind](m, n, w):
            failed += 1
            if first_failure is None:
                first_failure = f"add_{kind}({m}, {n}) -> {w!r}"[:300]
        window.append(t1 - t0)
        window_ns += t1 - t0
        by_size[size][0] += 1
        by_size[size][1] += t1 - t0
        last = tracer is not None and pos + 1 == workload["traced_ops"]
        if not last and window_ns < WINDOW_S * 1e9:
            continue
        f = speed.factor()
        scaled_ns += window_ns * f
        for ns in window:
            block.append(ns * f)
            if len(block) == BLOCK:
                blocks.append(percentiles(block))
                last_full, block = block, []
        window = array("q")
        window_ns = 0
        if last or (tracer is None and time.perf_counter_ns() > deadline
                    and pos + 1 >= min_calls):
            break
    if blocks and block:  # the calls after the last full block join it
        blocks[-1] = percentiles(last_full + block)
    calls = pos + 1
    measured_ns = sum(ns for _, ns in by_size.values())
    p50, p90, p99 = (statistics.median(b[i] for b in blocks) / 1e3 if blocks else None
                     for i in range(3))
    return {
        "attempted": calls, "failed": failed, "first_failure": first_failure,
        "adds": {
            "calls": calls,
            "adds_per_s": (calls - failed) / (scaled_ns / 1e9),
            "p50_us": p50, "p90_us": p90, "p99_us": p99,
            "blocks": len(blocks),
            "measured_adds_per_s": (calls - failed) / (measured_ns / 1e9),
            "speed": speed.summary(),
            "by_size": {s: {"calls": c, "measured_mean_us": ns / c / 1e3}
                        for s, (c, ns) in by_size.items() if c},
        },
    }


def verify_phase(fibc, seconds, tracer):
    """Verify batteries, each scaled by its Speed factor: repeated for
    `seconds` untraced, exactly one traced (with no bursts inside it, which
    would land in the spans)."""
    depth = SPEC["verify_depth"]
    expected = {name: n for _, name, n in SPEC["verify_checks"]}
    min_reps = 1 if tracer is not None else SPEC["min_verify_reps"]
    speed = Speed(passes=60)
    times, measured = [], []
    failed = 0
    first_failure = None
    instances = None
    deadline = time.perf_counter() + seconds
    while len(times) < min_reps or (tracer is None and time.perf_counter() < deadline):
        if tracer is not None:
            tracer.op_id = len(times)
        buf = io.StringIO()
        sampling = speed.sampling(0.05) if tracer is None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with sampling, contextlib.redirect_stdout(buf):
                rc = fibc.cli.main(["verify", "--depth", str(depth)])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # counted as a failed operation
            rc = repr(exc)
        measured.append(time.perf_counter() - t0 - speed.paused_s)
        times.append(measured[-1] * speed.factor())
        counts = {m[2]: int(m[3]) for m in map(LINE.match, buf.getvalue().splitlines()) if m}
        instances = sum(counts.values())
        if rc != 0 or counts != expected:
            failed += 1
            if first_failure is None:
                wrong = {k: v for k, v in counts.items() if expected.get(k) != v}
                first_failure = f"verify exit {rc!r}, counts differing from the pinned ones: {wrong}"
    return {"attempted": len(times), "failed": failed, "first_failure": first_failure,
            "verify": {"times_s": times, "measured_s": measured, "depth": depth,
                       "instances": instances, "speed": speed.summary()}}


def setup_phase(traced: bool):
    """import fibc plus the first berstel_adder() and complement_adder(),
    scaled by a Speed factor measured around them."""
    speed = Speed(passes=60)
    t0 = time.perf_counter()
    fibc, modules = import_fibc()
    tracer = install_tracer(fibc, modules) if traced else None
    fibc.berstel_adder()
    fibc.complement_adder()
    measured = time.perf_counter() - t0
    out = {"setup_s": measured * speed.factor(), "measured_s": measured,
           "cache_len": len(fibc.fibonacci._FIBS)}
    if tracer is not None:
        spans = tracer.spans()
        roots = [e - s for p, s, e in zip(spans["parent"], spans["start"], spans["end"]) if p < 0]
        stats = summarize(spans)
        out["build_s"] = sum(roots) / 1e9
        out["derive_adder_s"] = stats.get("derivation.derive_adder", {}).get("total_s", 0.0)
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", choices=("adds", "verify", "setup"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    if args.phase == "setup":
        print(json.dumps(setup_phase(args.trace)))
        return
    fibc, modules = import_fibc()
    fibc.berstel_adder()
    fibc.complement_adder()
    cache_len_start = len(fibc.fibonacci._FIBS)
    tracer = install_tracer(fibc, modules) if args.trace else None
    if args.phase == "adds":
        workload = SPEC["workloads"][args.workload]["adds"]
        out = adds_phase(fibc, workload, args.seed, args.seconds, tracer)
    else:
        out = verify_phase(fibc, args.seconds, tracer)
    out["cache_len_start"] = cache_len_start
    out["cache_len_end"] = len(fibc.fibonacci._FIBS)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.spans)
        out["counters"] = tracer.counters
        out["spans"] = len(tracer)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
