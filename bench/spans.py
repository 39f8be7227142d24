"""In-memory spans recorded by wrapping the program's public calls in place.

A span is ``(id, name, start, end, parent, claim_id, variant)`` with times
from ``time.perf_counter``. The parent is the innermost wrapped call on the
same thread; a call on a worker thread with no wrapped caller takes the
running ``run_eval`` span as its parent. Spans inside a ``verify_claim`` call
carry that claim's id and pipeline variant. ``Tracer.remove`` restores every
wrapped attribute.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    """Spans, per-call facts and call counters of the wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.facts: dict[str, list] = defaultdict(list)
        self.counters: dict[str, itertools.count] = {}
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _patch(self, owner: object, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner: object, attr: str, name: str, fact=None,
             context=None, root: bool = False) -> None:
        """Record a span around every call of ``owner.attr``.

        ``fact(args, result)`` is stored per call under ``name``;
        ``context(args)`` gives the (claim id, variant) for nested spans;
        ``root`` makes the span the parent of orphan worker-thread spans.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer.root
            outer = getattr(tracer._local, "claim", (None, None))
            if context is not None:
                tracer._local.claim = context(args)
            previous_root = tracer.root
            if root:
                tracer.root = sid
            stack.append(sid)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                claim = tracer._local.claim if context is not None else outer
                tracer.spans.append((sid, name, start, end, parent, *claim))
                if context is not None:
                    tracer._local.claim = outer
                if root:
                    tracer.root = previous_root
            if fact is not None:
                tracer.facts[name].append(fact(args, result))
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        original = getattr(owner, attr)
        counter = self.counters[name] = itertools.count()

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            next(counter)
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def calls(self, name: str) -> int:
        """Calls counted under ``name``; read it once, after the run."""
        return next(self.counters[name])

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, ensure_ascii=False) + "\n")


class SpanIndex:
    """Durations by span name and child intervals by parent id."""

    def __init__(self, spans: list[tuple]):
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        self.children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in spans:
            self.by_name[span[1]].append(span)
            if span[4] is not None:
                self.children[span[4]].append((span[2], span[3]))

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, start, end, *_ in self.by_name[name]]

    def self_times(self, name: str) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        return [
            end - start - union_length(self.children[sid])
            for sid, _, start, end, *_ in self.by_name[name]
        ]
