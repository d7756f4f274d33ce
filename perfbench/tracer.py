"""Span tracer that times nodemend's layers from outside the program.

The tracer replaces a layer's entry points with timing wrappers at the
place where the calling module looks them up (``nodemend.dml.fit_forest``
rather than ``nodemend.forest.fit_forest``, because ``dml`` imported the
name into its own namespace). The program itself is not edited, and every
original is put back when the tracer is closed.

Spans are kept in memory as ``[name, start, end, parent, request]`` lists,
where ``parent`` is the index of the enclosing span (or -1) and
``request`` is the id of the serve decision the span belongs to (or None).
They are written out once, at the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

_MISSING = object()


def paused(tracer: "Tracer | None"):
    """``tracer.pause()``, or nothing when the run is not traced."""
    return tracer.pause() if tracer else nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = None
        self.paused = False
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (open: {popped})")

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner: object, attr: str, name, on_result=None) -> bool:
        """Replace ``owner.attr`` by a timing wrapper; False if it is absent.

        ``name`` is a span name or a function of (args, kwargs) returning
        one. ``on_result(args, kwargs, result)`` runs after the span closes,
        so the counting it does is not timed.
        """
        raw = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else getattr(owner, attr, _MISSING)
        if raw is _MISSING or not callable(getattr(owner, attr, None)):
            self.skipped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            sid = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(sid)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))
        return True

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def pause(self):
        """Call through the wrappers without recording anything."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(
                    json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent, "request": request})
                    + "\n"
                )


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, request in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children[parent].append((max(start, p_start), min(end, p_end)))
    return [(end - start) - _covered(children.get(sid, [])) for sid, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Total time, self time and call count per span name."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for sid, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        row["total_s"] += end - start
        row["self_s"] += selfs[sid]
        row["calls"] += 1
    return out


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one wrapped call beyond the call itself."""

    def plain():
        return None

    holder = type("Holder", (), {"f": staticmethod(plain)})
    start = time.perf_counter()
    for _ in range(samples):
        holder.f()
    bare = time.perf_counter() - start
    tracer = Tracer()
    tracer.wrap(holder, "f", "calibrate")
    start = time.perf_counter()
    for _ in range(samples):
        holder.f()
    wrapped = time.perf_counter() - start
    tracer.restore()
    return max(wrapped - bare, 0.0) / samples
