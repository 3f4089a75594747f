"""In-memory span tracer that wraps the package's public functions from outside.

``Tracer.install`` replaces every public function of the traced modules in
every ``topoprobe`` namespace that binds it (``topoprobe.cli.simulate_stream``
as well as ``topoprobe.interferometer.simulate_stream``), so calls made inside
the package are recorded too. A span is ``(name, start, end, parent, op)``:
``parent`` is the index of the enclosing span (-1 at top level) and ``op`` the
benchmark operation that caused it. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("model", "interferometer", "surgery", "gates", "rng", "cli")

# Work counted at a call's boundary, read from the call's result.
_COUNTS = {
    "interferometer.simulate_stream": lambda trajectory: len(trajectory.outcomes),
    "model.verify_consistency": lambda report: sum(f.checked for f in report.families.values()),
}


class Profile:
    """Per-name calls, inclusive time, self time and boundary counts of a span range."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for name, t in self.self_time.items() if name.startswith(prefix))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, int] = {}
        self.op = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self):
        package = "topoprobe"
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(fn)
                    and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == module.__name__
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = self._wrap(name, fn, _COUNTS.get(name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn, count):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent, op = stack[-1] if stack else -1, self.op
            spans.append(None)  # the slot children name as their parent
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                # a tuple of plain values, which the cyclic collector stops tracking
                spans[index] = (name, start, clock(), parent, op)
                stack.pop()
            if count is not None:
                counts[index] = count(result)
            return result

        return traced

    def profile(self, lo: int, hi: int) -> Profile:
        """Aggregate spans ``lo <= index < hi``; self time is duration minus direct children."""
        spans = self.spans
        child = defaultdict(float)
        for index in range(lo, hi):
            _, start, end, parent, _ = spans[index]
            if parent >= lo:
                child[parent] += end - start
        result = Profile()
        for index in range(lo, hi):
            name, start, end, _, _ = spans[index]
            duration = end - start
            result.calls[name] += 1
            result.total[name] += duration
            result.self_time[name] += duration - child[index]
            if index in self.counts:
                result.counts[name] += self.counts[index]
        return result

    def calls_within(self, lo: int, hi: int, name: str, ancestor: str) -> int:
        """Number of ``name`` spans in the range that run inside an ``ancestor`` span."""
        spans = self.spans
        found = 0
        for index in range(lo, hi):
            if spans[index][0] != name:
                continue
            parent = spans[index][3]
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    found += 1
                    break
                parent = spans[parent][3]
        return found

    def write(self, path):
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                record = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if index in self.counts:
                    record["count"] = self.counts[index]
                handle.write(json.dumps(record) + "\n")
