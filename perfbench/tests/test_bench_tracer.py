"""Span recording and self-time arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import tempfile
import unittest
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from tracer import Tracer, read_spans, self_times, summarize  # noqa: E402
from worker import import_fibc, install_tracer  # noqa: E402


def synthetic():
    """root [0, 100] with children a [10, 40] and b [50, 90]; a has child
    a1 [15, 25]; a second root [100, 130] is another call of a."""
    return {
        "names": ["root", "a", "a1", "b"],
        "name_id": array("q", [0, 1, 2, 3, 1]),
        "parent": array("q", [-1, 0, 1, 0, -1]),
        "op": array("q", [0, 0, 0, 0, 1]),
        "start": array("q", [0, 10, 15, 50, 100]),
        "end": array("q", [100, 40, 25, 90, 130]),
    }


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 10
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        s = synthetic()
        self.assertEqual(self_times(s["parent"], s["start"], s["end"]), [30, 20, 10, 40, 30])

    def test_summary_sums_calls_inclusive_and_self_time_per_name(self):
        stats = summarize(synthetic())
        ns = {name: (s["calls"], round(s["total_s"] * 1e9), round(s["self_s"] * 1e9))
              for name, s in stats.items()}
        self.assertEqual(ns, {"root": (1, 100, 30), "a": (2, 60, 50),
                              "a1": (1, 10, 10), "b": (1, 40, 40)})

    def test_wrapped_calls_record_nesting_ops_and_hooks(self):
        tracer = Tracer(clock=FakeClock())
        seen = []
        inner = tracer.wrap("inner", lambda x: x + 1, hook=lambda c, a, r: seen.append((a, r)))
        outer = tracer.wrap("outer", lambda x: inner(x) * 2)
        tracer.op_id = 7
        self.assertEqual(outer(1), 4)
        spans = tracer.spans()
        self.assertEqual([spans["names"][i] for i in spans["name_id"]], ["outer", "inner"])
        self.assertEqual(list(spans["parent"]), [-1, 0])
        self.assertEqual(list(spans["op"]), [7, 7])
        self.assertEqual(seen, [((1,), 2)])
        own = self_times(spans["parent"], spans["start"], spans["end"])
        self.assertEqual(own, [20, 10])  # each clock read advances 10

    def test_generator_gets_one_span_per_item_without_consumer_time(self):
        tracer = Tracer(clock=FakeClock())

        def numbers():
            yield from range(3)
        counted = []
        traced = tracer.wrap("numbers", numbers, hook=lambda c, a, r: counted.append(r))
        consumer = tracer.wrap("consumer", lambda: [x for x in traced()])
        self.assertEqual(consumer(), [0, 1, 2])
        self.assertEqual(counted, [0, 1, 2])
        stats = summarize(tracer.spans())
        self.assertEqual(stats["numbers"]["calls"], 4)  # three items, then exhaustion
        spans = tracer.spans()
        consumer_index = spans["name_id"].tolist().index(spans["names"].index("consumer"))
        for nid, parent in zip(spans["name_id"], spans["parent"]):
            if spans["names"][nid] == "numbers":
                self.assertEqual(parent, consumer_index)

    def test_spans_round_trip_through_a_file(self):
        tracer = Tracer(clock=FakeClock())
        tracer.wrap("f", lambda: None)()
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "spans.bin")
            tracer.write(path)
            self.assertEqual(read_spans(path), tracer.spans())


class InstallTest(unittest.TestCase):
    def test_install_wraps_every_binding_and_uninstall_restores_them(self):
        fibc, modules = import_fibc()
        original = fibc.zeckendorf.fib_rep
        run = fibc.mealy.MealyMachine.run
        tracer = install_tracer(fibc, modules)
        try:
            self.assertIsNot(fibc.zeckendorf.fib_rep, original)
            self.assertIs(fibc.complement.fib_rep, fibc.zeckendorf.fib_rep)
            self.assertIs(fibc.adders.fib_rep, fibc.zeckendorf.fib_rep)
            self.assertIs(fibc.cli.run_checks, fibc.verify.run_checks)
            self.assertEqual(fibc.adders.add_fibc(-1, -9), "1000100")
        finally:
            tracer.uninstall()
        self.assertIs(fibc.zeckendorf.fib_rep, original)
        self.assertIs(fibc.complement.fib_rep, original)
        self.assertIs(fibc.mealy.MealyMachine.run, run)
        spans = tracer.spans()
        names = [spans["names"][i] for i in spans["name_id"]]
        self.assertEqual(names[0], "adders.add_fibc")
        self.assertIn("zeckendorf.fib_rep", names)
        self.assertIn("mealy.MealyMachine.run", names)
        self.assertTrue(all(p >= 0 for p in spans["parent"][1:]))
        self.assertGreater(tracer.counters["mealy.symbols"], 0)


if __name__ == "__main__":
    unittest.main()
