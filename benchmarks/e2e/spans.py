"""Spans recorded from outside the program, for the traced benchmark run.

A :class:`Tracer` rebinds the public callables listed under ``"trace"``
in ``spec.json`` (``"module:attr"`` or ``"module:Class.method"``) with
wrappers that record one :class:`Span` per call: name, start, end, the
enclosing span on the same thread and the benchmark op that was running.
Entries with ``"count"`` instead of ``"span"`` only count calls, for hot
paths where a span per call would distort the parent's self time.

Spans stay in memory and are read once the run ends.  Nothing is
installed unless :meth:`Tracer.install` is called, so the untraced run
executes the program unmodified.  Worker processes forked while the
wrappers are installed inherit them switched off: their spans could
never reach the parent anyway.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class Span:
    """One recorded call."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    size: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _senders(args: tuple, kwargs: dict) -> int:
    """``Channel.resolve(self, transmissions)``: how many sent this slot."""
    return len(args[1])


def _largest_class(args: tuple, kwargs: dict) -> int:
    """``independence_violations(positions, radius, colors)``: largest class."""
    colors = np.asarray(args[2], dtype=np.int64)
    decided = colors[colors >= 0]
    return int(np.bincount(decided).max()) if decided.size else 0


SIZERS: dict[str, Callable[[tuple, dict], int]] = {
    "senders": _senders,
    "largest_class": _largest_class,
}


def _resolve_target(target: str) -> tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Install span wrappers, collect spans, restore the originals."""

    def __init__(self, entries: list[dict]) -> None:
        self.entries = entries
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        #: The benchmark op in flight; spans recorded on any thread carry it.
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._enabled = True
        self._restore: list[tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self._enabled = False

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(
        self, name: str, fn: Callable, sizer: Callable | None
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer._enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            op = tracer.op
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                size = sizer(args, kwargs) if sizer is not None else None
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, op, size)
                )

        return traced

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            if tracer._enabled:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Rebind every listed callable to its recording wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for entry in self.entries:
            owner, attr = _resolve_target(entry["target"])
            original = getattr(owner, attr)
            if "count" in entry:
                wrapper = self._count_wrapper(entry["count"], original)
            else:
                sizer = SIZERS[entry["size"]] if "size" in entry else None
                wrapper = self._span_wrapper(entry["span"], original, sizer)
            # an inherited method is restored by deleting the override
            own = vars(owner).get(attr) if isinstance(owner, type) else original
            self._restore.append((owner, attr, own))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original callable back, in reverse install order."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading the spans ---------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span.duration for span in self.named(name))

    def self_s(self, name: str) -> float:
        """Summed self time: each span's duration minus its children's."""
        children: Counter = Counter()
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.duration
        return sum(
            span.duration - children[span.span_id] for span in self.named(name)
        )
