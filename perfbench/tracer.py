"""Tracing by rebinding module attributes from outside the package.

The gcs modules import their collaborators with ``from .x import y``, so a
caller looks a function up in its *own* module's namespace. The tracer
therefore wraps each binding where it is looked up (``gcs.recovery.
objective_value_grad``, ``gcs.gnn.apply``, ``gcs.harness.recover``, ...) and
puts every original back on ``restore``.

Two kinds of wrapper:

* span: one record per call (name, id, parent id, start, end, thread), for
  coarse calls such as trials, drivers and ``train_vae``;
* hot: aggregated count, total time and self time per (name, enclosing span),
  for inner calls that run about a million times per run.

State is per thread (a frame stack and a stats dict), so counts stay exact
under ``--threads 2``; the per-thread dicts are merged after the run.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

_clock = time.perf_counter


class Patcher:
    """Replace module attributes and put the originals back in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    child_s: float = 0.0  # same-thread child time (spans and hot calls)


@dataclass
class HotStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: list = field(default_factory=lambda: [0.0, 0.0])  # summed (bytes, flops)


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # frames: [child_s, span_id]
        self.root = 0  # parent span for frames opened on an empty stack
        self.stats = None


class Tracer:
    def __init__(self):
        self.patcher = Patcher()
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._state = _ThreadState()
        self._thread_stats: list[dict] = []

    # -- per-thread state -------------------------------------------------
    def _stats(self) -> dict:
        st = self._state
        if st.stats is None:
            st.stats = {}
            with self._lock:
                self._thread_stats.append(st.stats)
        return st.stats

    def _parent_id(self) -> int:
        st = self._state
        return st.stack[-1][1] if st.stack else st.root

    # -- spans ------------------------------------------------------------
    def open_span(self, name: str) -> tuple[Span, list]:
        st = self._state
        with self._lock:
            span = Span(next(self._ids), self._parent_id(), name, 0.0,
                        thread=threading.get_ident())
            self.spans.append(span)
        frame = [0.0, span.id]
        st.stack.append(frame)
        span.start = _clock()
        return span, frame

    def close_span(self, span: Span, frame: list) -> None:
        span.end = _clock()
        st = self._state
        st.stack.pop()
        span.child_s = frame[0]
        if st.stack:
            st.stack[-1][0] += span.end - span.start

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span, frame = self.open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close_span(span, frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_in(self, parent_id: int, fn, *args):
        """Call fn with parent_id as the root span of this thread's stack."""
        st = self._state
        saved = st.root
        st.root = parent_id
        try:
            return fn(*args)
        finally:
            st.root = saved

    # -- hot calls --------------------------------------------------------
    def hot(self, name: str, fn, extra=None):
        """Aggregate calls of fn under (name, enclosing span id).

        extra(*args) may return (bytes, flops) computed for the call.
        """
        state = self._state
        stats_of = self._stats

        def wrapper(*args, **kwargs):
            stack = state.stack
            frame = [0.0, stack[-1][1] if stack else state.root]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stats = state.stats if state.stats is not None else stats_of()
                key = (name, frame[1])
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = HotStat()
                rec.calls += 1
                rec.total_s += dur
                rec.self_s += dur - frame[0]
                if extra is not None:
                    b, f = extra(*args)
                    rec.extra[0] += b
                    rec.extra[1] += f

        wrapper.__wrapped__ = fn
        return wrapper

    def hot_stats(self) -> dict:
        """Merged {(name, span id): HotStat} over all threads."""
        merged: dict = {}
        with self._lock:
            per_thread = list(self._thread_stats)
        for stats in per_thread:
            for key, rec in stats.items():
                out = merged.setdefault(key, HotStat())
                out.calls += rec.calls
                out.total_s += rec.total_s
                out.self_s += rec.self_s
                out.extra[0] += rec.extra[0]
                out.extra[1] += rec.extra[1]
        return merged

    # -- installation -----------------------------------------------------
    def wrap_span(self, module, attr: str, name: str) -> None:
        self.patcher.set(module, attr, self.span(name, getattr(module, attr)))

    def wrap_hot(self, module, attr: str, name: str, extra=None) -> None:
        self.patcher.set(module, attr, self.hot(name, getattr(module, attr), extra))

    def restore(self) -> None:
        self.patcher.restore()


def span_self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus the time its children cover.

    Same-thread children are already summed in ``child_s``. Children on other
    threads (pool workers) can overlap each other, so their intervals are
    merged before they are subtracted.
    """
    remote: dict[int, list] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread != s.thread:
            remote.setdefault(parent.id, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = s.child_s
        intervals = sorted(remote.get(s.id, []))
        lo = hi = None
        for a, b in intervals:
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = max(0.0, (s.end - s.start) - covered)
    return out
