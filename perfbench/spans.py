"""In-memory span recorder and the wrappers that feed it.

A span is one call into a layer: ``(pid, id, name, start, end, parent,
note)``.  ``parent`` is the id of the span that was open on the same
thread of the same process when this one began (0 for a root span);
``note`` is an optional small dict a wrapper attaches to describe the
call's outcome (a cache hit, the bytes a store wrote).  Times come from
``time.perf_counter``, which on Linux reads ``CLOCK_MONOTONIC`` and is
therefore comparable across the processes of one machine.

Spans stay in memory until the run ends.  A process forked from a
recording process (a ``ProcessPoolExecutor`` worker under the default
``fork`` start method) inherits the wrappers; it drops the parent's
spans on its first call and appends each finished root span tree to
``<spool>/spans-<pid>.jsonl``, so the parent can collect work that ran
in its pool workers.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One finished span: (pid, id, name, start, end, parent id, note).
Span = Tuple[int, int, str, float, float, int, Optional[dict]]


class SpanRecorder:
    """Records spans from any thread; forked children spool to disk."""

    def __init__(self, spool_dir: "Path | str | None" = None):
        self.spool_dir = None if spool_dir is None else Path(spool_dir)
        self._owner = os.getpid()
        self._pid = self._owner
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: List[Span] = []

    def _stack(self) -> list:
        pid = os.getpid()
        if pid != self._pid:
            # First call in a forked child: the inherited spans and any
            # span the parent had open belong to the parent.
            self._pid = pid
            self.spans = []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        note: "Callable[[tuple, object], Optional[dict]] | None" = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``note(args, result)``
        may describe a successful call's outcome."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            outcome = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    outcome = note(args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (self._pid, span_id, name, start, end, parent, outcome)
                )
                if not stack and self._pid != self._owner:
                    self._spool()

        return traced

    def _spool(self) -> None:
        if self.spool_dir is None:
            return
        path = self.spool_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> List[Span]:
        """This process's spans plus every span spooled by children."""
        spans = list(self.spans)
        if self.spool_dir is not None and self.spool_dir.is_dir():
            for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
                spans.extend(load_spans(path))
        return spans


def load_spans(path: "Path | str") -> List[Span]:
    """Spans written one JSON list per line (by spooling or ``dump``)."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            pid, span_id, name, start, end, parent, note = json.loads(line)
            spans.append((pid, span_id, name, start, end, parent, note))
    return spans


def dump_spans(spans: Iterable[Span], path: "Path | str") -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def in_window(
    spans: Iterable[Span], start: float, end: float
) -> List[Span]:
    """Spans that began inside ``[start, end]``."""
    return [span for span in spans if start <= span[3] <= end]


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[Tuple[int, int], float]:
    """Per span: duration minus the part of it its children cover.

    Children that overlap each other (possible when a layer hands work
    to threads that report under one parent) are merged first, so the
    covered time is never counted twice.
    """
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for pid, _, _, start, end, parent, _ in spans:
        if parent:
            children.setdefault((pid, parent), []).append((start, end))
    result = {}
    for pid, span_id, _, start, end, _, _ in spans:
        covered = _covered(children.get((pid, span_id), []), start, end)
        result[(pid, span_id)] = (end - start) - covered
    return result


def summarize(spans: Sequence[Span]) -> Dict[str, dict]:
    """``{name: {"calls", "total_s", "self_s"}}``."""
    selfs = self_times(spans)
    table: Dict[str, dict] = {}
    for pid, span_id, name, start, end, _, _ in spans:
        row = table.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[(pid, span_id)]
    return table


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured seconds one wrapped call adds over a bare call.

    The median of five batches, each timing ``calls`` calls of a no-op
    function bare and wrapped (with an outcome note, as the cache
    wrappers have).
    """

    def noop(value):
        return value

    costs = []
    for _ in range(5):
        recorder = SpanRecorder()
        traced = recorder.wrap(noop, "calibration", note=lambda a, r: None)
        start = time.perf_counter()
        for value in range(calls):
            noop(value)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for value in range(calls):
            traced(value)
        wrapped = time.perf_counter() - start
        costs.append(max(0.0, (wrapped - bare) / calls))
    costs.sort()
    return costs[len(costs) // 2]
