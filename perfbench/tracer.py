"""Spans around the calls into each fibc module, recorded from outside.

`Tracer.install` replaces every public fibc function, cached builder and
class method at each place a fibc module binds it (so `fib_rep` is wrapped
as bound in `zeckendorf`, `complement` and `adders`, and `run_checks` as
bound in both `verify` and `cli`); no source file changes.  Each call then
records a span: name, start, end, parent span and operation id.  Spans stay
in compact in-memory arrays and are written out once, when the run ends.

Spans nest strictly: one thread opens and closes them in stack order, so
the child spans of a span never overlap, and the time they cover is the sum
of their durations.  A span's self time is its duration minus that sum.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from typing import Callable

# Counter hooks, keyed by span name; each gets (counters, args, result) after
# the span closes, so their cost falls to the parent span.
Hook = Callable[[dict, tuple, object], None]


def bump(counters: dict, key: str, amount: int) -> None:
    counters[key] = counters.get(key, 0) + amount


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = {}
        self.op_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """A traced stand-in for fn; generator functions get one span per
        item produced, so consumer code between items is not counted."""
        nid = self.name_index(name)
        counters = self.counters

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = self.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(i)
                    if hook is not None:
                        hook(counters, args, item)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if hook is not None:
                hook(counters, args, result)
            return result
        return traced

    def install(self, modules, hooks: dict[str, Hook]) -> None:
        """Wrap every public fibc callable bound in the given modules."""
        wrapped: dict[int, Callable] = {}
        classes: set[type] = set()

        def traced(fn: Callable) -> Callable:
            if id(fn) not in wrapped:
                name = f"{fn.__module__.removeprefix('fibc.')}.{fn.__qualname__}"
                wrapped[id(fn)] = self.wrap(name, fn, hooks.get(name))
            return wrapped[id(fn)]

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _from_fibc(obj):
                    continue
                if isinstance(obj, type):
                    classes.add(obj)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    self._patch(module, attr, traced(obj))
        for cls in classes:
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    self._patch(cls, attr, traced(obj))
                elif isinstance(obj, classmethod):
                    self._patch(cls, attr, classmethod(traced(obj.__func__)))

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self) -> dict:
        """Names plus the five span columns, as read_spans returns them."""
        return {"names": self.names, "name_id": self.name_id, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end}

    def write(self, path: str) -> None:
        """One JSON header line (names, span count), then the five arrays."""
        with open(path, "wb") as f:
            f.write(json.dumps({"names": self.names, "spans": len(self)}).encode())
            f.write(b"\n")
            for column in (self.name_id, self.parent, self.op, self.start, self.end):
                column.tofile(f)


def _from_fibc(obj: object) -> bool:
    return (getattr(obj, "__module__", None) or "").startswith("fibc.")


def read_spans(path: str) -> dict:
    """Inverse of Tracer.write: names plus the five span columns."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        columns = {}
        for key in ("name_id", "parent", "op", "start", "end"):
            column = array("q")
            column.fromfile(f, header["spans"])
            columns[key] = column
    columns["names"] = header["names"]
    return columns


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def summarize(spans: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds."""
    own = self_times(spans["parent"], spans["start"], spans["end"])
    names = spans["names"]
    calls = [0] * len(names)
    total = [0] * len(names)
    self_ns = [0] * len(names)
    for nid, s, e, o in zip(spans["name_id"], spans["start"], spans["end"], own):
        calls[nid] += 1
        total[nid] += e - s
        self_ns[nid] += o
    return {
        name: {"calls": calls[k], "total_s": total[k] / 1e9, "self_s": self_ns[k] / 1e9}
        for k, name in enumerate(names) if calls[k]
    }
