"""In-memory spans around calls into qdim's public functions.

The benchmark wraps each traced function at every name its callers look it
up under (``qdim.cli`` imports ``fit_dimension`` and friends by name, so
patching ``qdim.quantize.fit_dimension`` alone would miss the CLI's calls).
A span records its name, thread, start, end and the enclosing span on the
same thread.  Spans stay in memory until :meth:`Tracer.dump`.

Self time is computed per span: its duration minus the part of its interval
that its children cover.  Children are the spans nested in it on its own
thread plus, for work that ``parallel_map`` hands to pool threads, the
outermost spans of other threads, which are attributed to the deepest span
open on the client thread when they start.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    thread: int
    start: float
    end: float = 0.0
    parent: int | None = None
    fields: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fields: dict | None = None) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            sp = Span(len(self.spans), name, threading.get_ident(), time.perf_counter(),
                      parent=stack[-1].sid if stack else None, fields=dict(fields or {}))
            self.spans.append(sp)
        stack.append(sp)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, name: str, fn, describe=None):
        """``fn`` recording one span per call; ``describe(args, kwargs, result)`` adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self.span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sp)
            if describe is not None:
                sp.fields.update(describe(args, kwargs, result))
            return result

        return traced

    def patch(self, targets, name: str, attr: str, describe=None) -> None:
        """Replace ``attr`` on every module in ``targets`` by one traced wrapper."""
        original = getattr(targets[0], attr)
        traced = self.wrap(name, original, describe)
        for mod in targets:
            self._patches.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, traced)

    def unpatch(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.__dict__, sort_keys=True) + "\n")


def attach_orphans(spans: list[Span], client_thread: int) -> None:
    """Give each outermost span of a non-client thread its client-thread parent.

    The parent is the deepest client-thread span whose interval contains the
    orphan's start, i.e. the call that was blocked waiting on the pool.
    """
    client = [sp for sp in spans if sp.thread == client_thread]
    depth: dict[int, int] = {}
    for sp in client:
        depth[sp.sid] = 0 if sp.parent is None else depth[sp.parent] + 1
    for sp in spans:
        if sp.thread == client_thread or sp.parent is not None:
            continue
        enclosing = [c for c in client if c.start <= sp.start <= c.end]
        if enclosing:
            sp.parent = max(enclosing, key=lambda c: depth[c.sid]).sid


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of a union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {sp.sid: [] for sp in spans}
    by_id = {sp.sid: sp for sp in spans}
    for sp in spans:
        if sp.parent is not None:
            par = by_id[sp.parent]
            lo, hi = max(sp.start, par.start), min(sp.end, par.end)
            if hi > lo:
                children[par.sid].append((lo, hi))
    return {sp.sid: (sp.end - sp.start) - _covered(children[sp.sid]) for sp in spans}
