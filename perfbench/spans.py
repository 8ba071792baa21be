"""Span recording around the public calls into the solver's layers.

The benchmark attributes time without touching the program: for the
duration of a traced run it replaces selected module attributes and
class methods with wrappers that record one span per call, then puts
the originals back.  A span is ``[name, start, end, parent, rid]``
(``perf_counter`` seconds, index of the enclosing span in the same
thread or ``None``, and the instance or request id).  Spans stay in
memory until the run ends; self time is a span's duration minus the
time covered by its direct children.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, RID = range(5)

#: ``(owner, attribute, span name)``: the attribute of ``owner`` (a
#: module or a class) to wrap while tracing.
Target = Tuple[object, str, str]


class SpanRecorder:
    """In-memory span store shared by every wrapped call of one run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.rid: Optional[str] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, rid: Optional[str]) -> Tuple[list, List[int]]:
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else None, rid]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        span[START] = time.perf_counter()
        return span, stack

    def count(self, key: str) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1

    @contextmanager
    def root(self, name: str, rid: str) -> Iterator[None]:
        """A benchmark-level span (one instance) that layer spans nest in."""
        self.rid = rid
        span, stack = self._open(name, rid)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            stack.pop()
            self.rid = None

    def wrap(
        self,
        name: str,
        function: Callable,
        observe: Optional[Callable[[list, tuple, dict, object], None]] = None,
    ) -> Callable:
        """``function`` recording a ``name`` span per call.

        ``observe(span, args, kwargs, result)`` runs after a call that
        returned, to set the span's id or count an outcome.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span, stack = self._open(name, self.rid)
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(
        self,
        targets: Sequence[Target],
        observers: Optional[Dict[str, Callable]] = None,
    ) -> Iterator[None]:
        """Wrap every target for the duration of the block."""
        observers = observers or {}
        saved = []
        try:
            for owner, attribute, name in targets:
                original = (owner.__dict__[attribute] if isinstance(owner, type)
                            else getattr(owner, attribute))
                saved.append((owner, attribute, original))
                setattr(owner, attribute,
                        self.wrap(name, original, observers.get(name)))
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def dump(self, path: str, **extra: object) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(extra, spans=self.spans, counts=self.counts), handle)


def self_times(spans: Sequence[list]) -> List[float]:
    """Per-span duration minus the duration of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            own[parent] -= span[END] - span[START]
    return own


def by_name(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """``{name: {"self_s", "total_s", "calls"}}`` over all spans."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[NAME], {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        row["self_s"] += own
        row["total_s"] += span[END] - span[START]
        row["calls"] += 1
    return table


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call (median of 5)."""

    def bare() -> None:
        return None

    samples = []
    for _ in range(5):
        traced = SpanRecorder().wrap("calibrate", bare)
        start = time.perf_counter()
        for _ in range(calls):
            bare()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        samples.append((time.perf_counter() - start - plain) / calls)
    samples.sort()
    return max(0.0, samples[len(samples) // 2])


def ranking(table: Dict[str, Dict[str, float]]) -> List[str]:
    """Report lines: layers ranked by self time, largest first."""
    rows = sorted(table.items(), key=lambda item: -item[1]["self_s"])
    return [
        f"  {name:<28} self {row['self_s']:9.4f} s  calls {int(row['calls']):7d}"
        for name, row in rows
    ]
