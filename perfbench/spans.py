"""In-memory span recorder and the patching that feeds it.

A :class:`Tracer` records one span per call into a wrapped function:
``[name, start, end, parent]``, where ``parent`` is the index of the
enclosing span (``-1`` at top level).  Spans stay in memory for one
repetition; :meth:`Tracer.summary` folds them into per-name totals, self
times and call counts, and :meth:`Tracer.dump` writes them out as JSON
lines when the benchmark ends.

Wrapping never edits the program's source: :class:`Patcher` swaps a
module or class attribute for a wrapper and puts the original back on
:meth:`Patcher.restore`.  :meth:`Patcher.rebind` replaces *every* module
binding of one function object -- ``from x import f`` copies the name
into the importing module, so patching ``x.f`` alone would miss those
callers.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    """Spans and exact counters of one repetition."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self.counts: Counter = Counter()
        self._stack: "list[int]" = []

    def open(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           stack[-1] if stack else -1])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn, observe=None, meter=None):
        """``fn`` wrapped in a span.

        ``observe(result, args, kwargs)`` runs after a successful call,
        inside the span.  With ``meter``, ``counts[name + ".queries"]``
        grows by the change of ``meter()`` across the call.  The body
        inlines :meth:`open`/:meth:`close`: wrappers sit on hot paths.
        """
        spans, stack, counts = self.spans, self._stack, self.counts
        queries, calls = name + ".queries", name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(index)
            before = meter() if meter is not None else 0
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result, args, kwargs)
                return result
            finally:
                if meter is not None:
                    counts[queries] += meter() - before
                    counts[calls] += 1
                spans[index][2] = perf_counter()
                stack.pop()
        return wrapper

    def summary(self) -> "dict[str, dict[str, float]]":
        """Per span name: ``total`` seconds, ``self`` seconds (duration
        minus the time direct children cover) and ``calls``."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: "dict[str, dict[str, float]]" = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"total": 0.0, "self": 0.0,
                                          "calls": 0})
            entry["total"] += end - start
            entry["self"] += end - start - child_time[index]
            entry["calls"] += 1
        return out

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.spans.clear()
        self.counts.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON lines ``[id, name, start, end,
        parent]``, times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps([index, name, round(start - origin, 7),
                                      round(end - origin, 7), parent]) + "\n")


class Patcher:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: "list[tuple[object, str, object]]" = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, original, wrapper) -> "list[str]":
        """Point every ``repro`` module binding of ``original`` at
        ``wrapper``; returns the patched ``module.name`` spellings."""
        patched = []
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == "repro"
                                      or modname.startswith("repro.")):
                continue
            for attr, value in sorted(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)
                    patched.append(f"{modname}.{attr}")
        return patched

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
