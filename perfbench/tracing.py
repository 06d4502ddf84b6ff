"""Span tracing from outside the program.

The benchmark never edits ``src/``: it records spans by wrapping public
callables (module functions, class methods, bound methods of objects it
built), the journal's ``fsync_fn`` seam and ``gc.callbacks``.  Spans
live in memory as tuples ``(id, parent, name, start, end, work)`` with
a per-thread parent stack, so a layer's *self* time is its duration
minus the part its child spans cover; they are written out once, when
the run ends.

Every clock reading is ``time.monotonic()`` — the clock
``Prediction.submitted_at`` uses — so span edges and request timestamps
compare directly.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

import numpy as np

#: Span tuple fields.
ID, PARENT, NAME, START, END, WORK = range(6)


class Tracer:
    """In-memory span recorder with reversible patching."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []
        self.gc_pauses: list[tuple[int, float]] = []  # (generation, seconds)
        self._gc_started: dict[int, float] = {}
        self.armed = False

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        work: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call while the tracer is armed.

        ``work(args, result)`` returns the call's unit count (plans,
        nodes, bytes) stored on the span, so per-unit costs are measured
        where the work happens.
        """
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            if not self.armed:
                return fn(*args, **kwargs)
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                units = work(args, result) if work is not None else 1
                spans.append((span_id, parent, name, start, end, units))

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, work=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by :meth:`unpatch`).

        ``owner`` may be a module, a class (plain functions and
        class/static methods are re-wrapped as the same descriptor kind)
        or an instance (the wrapper shadows the bound method).
        """
        raw = owner.__dict__.get(attr) if hasattr(owner, "__dict__") else None
        if isinstance(raw, classmethod):
            wrapped = self.wrap(name, raw.__func__, work)
            setattr(owner, attr, classmethod(wrapped))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(name, raw.__func__, work)))
        else:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), work))
        if raw is not None:
            self._undo.append(lambda: setattr(owner, attr, raw))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.armed:
            return
        generation = info.get("generation", 0)
        if phase == "start":
            self._gc_started[generation] = time.monotonic()
        else:
            started = self._gc_started.pop(generation, None)
            if started is not None:
                self.gc_pauses.append((generation, time.monotonic() - started))

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        self.armed = True
        return self

    def __exit__(self, *exc_info) -> None:
        self.armed = False
        gc.callbacks.remove(self._on_gc)
        self.unpatch()

    # -- analysis ------------------------------------------------------
    def by_name(self) -> dict[str, list[tuple]]:
        groups: dict[str, list[tuple]] = defaultdict(list)
        for span in self.spans:
            groups[span[NAME]].append(span)
        return groups

    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT]:
                child_time[span[PARENT]] += span[END] - span[START]
        return {
            span[ID]: (span[END] - span[START]) - child_time.get(span[ID], 0.0)
            for span in self.spans
        }

    def write(self, path: Path, header: dict) -> None:
        """Dump every span (one JSON document) once the run is over."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "name", "start", "end", "work"]
        with open(path, "w") as handle:
            json.dump({**header, "fields": fields, "spans": self.spans}, handle)


def durations_ms(spans: list[tuple]) -> np.ndarray:
    return np.array([(s[END] - s[START]) * 1e3 for s in spans], dtype=float)


def p50(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.median(values)) if values.size else 0.0


def per_unit_us(spans: list[tuple], seconds: Optional[dict] = None) -> float:
    """Microseconds per unit of work over a span list (self time if given)."""
    units = sum(s[WORK] for s in spans)
    if not units:
        return 0.0
    if seconds is None:
        total = sum(s[END] - s[START] for s in spans)
    else:
        total = sum(seconds[s[ID]] for s in spans)
    return total * 1e6 / units
