"""In-memory span tracing of the program's public functions.

The tracer wraps module attributes (for example `sentconv.net.forward`)
while it is installed and restores them afterwards, so the program runs
untouched whenever tracing is off.  Every call of a wrapped function
records one span: name, start, end, parent span and run id.  Spans stay in
memory and are written out once, at the end of the benchmark.

Work the tracer does for itself (counting embedding rows, counting FLOPs)
is recorded as a `tracer.bookkeeping` span, so it never lands in the self
time of the program's own spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

BOOKKEEPING = "tracer.bookkeeping"


class Tracer:
    """Records spans for the functions it wraps while installed."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index, run id]
        self.counters = defaultdict(float)
        self.run_id = "none"
        self._stack: list[int] = []
        self._patches: list = []     # (owner, attribute, original, replacement)

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.run_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrapper(self, name, fn, namer, after):
        def traced(*args, **kwargs):
            index = self._open(namer(args) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(self, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installing -------------------------------------------------------

    def wrap(self, module, attribute: str, *, name: str | None = None,
             namer=None, after=None, tables=()) -> None:
        """Replace `module.attribute` with a tracing wrapper.

        `namer(args)` names a span from the call's arguments; `after(tracer,
        args, result)` runs as bookkeeping after each call.  Dispatch
        dictionaries in `tables` that hold the original function get the
        wrapper too.
        """
        original = getattr(module, attribute)
        traced = self._wrapper(name or f"{module.__name__.split('.')[-1]}.{attribute}",
                               original, namer, after)
        self._patches.append((module, attribute, original, traced))
        for table in tables:
            for key, value in list(table.items()):
                if value is original:
                    self._patches.append((table, key, original, traced))

    @contextmanager
    def installed(self, run_id: str):
        """Trace every wrapped function for the duration of the block."""
        self.run_id = run_id
        for owner, key, _, traced in self._patches:
            _assign(owner, key, traced)
        try:
            yield self
        finally:
            for owner, key, original, _ in self._patches:
                _assign(owner, key, original)
            self.run_id = "none"

    # -- analysis ---------------------------------------------------------

    def check_nesting(self) -> list[str]:
        """Every span closed, inside its parent's interval, and not
        overlapping a sibling; returns the problems found."""
        problems = []
        last_end = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if end is None or end < start:
                problems.append(f"span {i} ({name}) not closed properly")
                continue
            if parent >= 0:
                _, p_start, p_end, _, _ = self.spans[parent]
                if start < p_start or (p_end is not None and end > p_end):
                    problems.append(f"span {i} ({name}) leaves its parent's interval")
            if start < last_end.get(parent, float("-inf")):
                problems.append(f"span {i} ({name}) overlaps an earlier sibling")
            last_end[parent] = end
        return problems

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def net_durations(self) -> list[float]:
        """Per span: its duration minus the bookkeeping spans beneath it."""
        below = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[i]
            if name == BOOKKEEPING:
                below[i] = end - start
            if parent >= 0:
                below[parent] += below[i]
        return [end - start - below[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self, runs=None, parents=None) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds (bookkeeping beneath the
        span excluded) and self seconds, over the spans whose run id is in
        `runs` and (optionally) whose parent's name is in `parents` (`None`
        as a parent name means a root span)."""
        own = self.self_times()
        net = self.net_durations()
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if runs is not None and run not in runs:
                continue
            if parents is not None:
                parent_name = self.spans[parent][0] if parent >= 0 else None
                if parent_name not in parents:
                    continue
            row = table[name]
            row["calls"] += 1
            row["total_s"] += net[i]
            row["self_s"] += own[i]
        return dict(table)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "run": run,
                                     "start_us": round((start - origin) * 1e6, 3),
                                     "end_us": round((end - origin) * 1e6, 3)}) + "\n")


def _assign(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)
