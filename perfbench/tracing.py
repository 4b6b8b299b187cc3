"""In-memory span tracing by wrapping module attributes from outside.

``Tracer.install`` replaces the named functions with wrappers that record one
span per call (name, start, end, parent span, run id) and optional counts
taken from the call's arguments and result.  Spans and counts live per
thread, so pipeline worker threads never share a list or a counter; the
tracer merges them when asked.  ``Tracer.uninstall`` puts every original
back and verifies that each attribute is again the original function object,
so tracing cannot leak into an untraced run.
"""

from __future__ import annotations

import csv
import functools
import itertools
import threading
from collections import Counter
from time import perf_counter


class _ThreadState:
    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.stack: list[int] = []
        self.spans: list[tuple] = []  # (run_id, span_id, parent_id, name, start, end)
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []
        self.run_id = 0
        self.root = 0  # outermost open span; parent of spans on threads with none open
        self.t0 = perf_counter()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _record(self, state: _ThreadState, span_id, parent, name, start, end) -> None:
        state.spans.append((self.run_id, span_id, parent, name, start, end))

    def span(self, name: str):
        """Context manager recording one span around a block of the caller."""
        return _Span(self, name)

    def count(self, key: str, n=1) -> None:
        self._state().counts[key] += n

    def peak(self, key: str, value) -> None:
        peaks = self._state().peaks
        peaks[key] = max(peaks[key], value)

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            span_id = next(tracer._ids)
            parent = state.stack[-1] if state.stack else tracer.root
            state.stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                state.stack.pop()
                tracer._record(state, span_id, parent, name, start, end)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(owner, attribute, span_name, observe)`` target."""
        for owner, attr, name, observe in targets:
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original, observe))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute; raise if one did not come back."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        leaked = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._installed
            if owner.__dict__.get(attr) is not original
        ]
        self._installed.clear()
        if leaked:
            raise RuntimeError(f"traced wrappers left installed: {', '.join(leaked)}")

    def spans(self, run_id: int | None = None) -> list[tuple]:
        """Every recorded span as (run_id, span_id, parent_id, name, start, end, thread)."""
        with self._states_lock:
            states = list(self._states)
        return [
            span + (state.thread_id,)
            for state in states
            for span in state.spans
            if run_id is None or span[0] == run_id
        ]

    def counts(self) -> Counter:
        """Counts of every thread summed, and peaks of every thread maximized."""
        merged: Counter = Counter()
        with self._states_lock:
            states = list(self._states)
        for state in states:
            merged.update(state.counts)
        for state in states:
            for key, value in state.peaks.items():
                merged[key] = max(merged[key], value)
        return merged

    def reset_counts(self) -> None:
        with self._states_lock:
            for state in self._states:
                state.counts.clear()
                state.peaks.clear()

    def write(self, path) -> int:
        """Write all spans as CSV (times in seconds since the tracer started)."""
        rows = sorted(self.spans(), key=lambda s: (s[0], s[4], s[1]))
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["run_id", "span_id", "parent_id", "name", "start_s", "end_s", "thread"])
            for run_id, span_id, parent, name, start, end, thread in rows:
                out.writerow(
                    [run_id, span_id, parent, name, f"{start - self.t0:.9f}", f"{end - self.t0:.9f}", thread]
                )
        return len(rows)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.state = self.tracer._state()
        self.span_id = next(self.tracer._ids)
        self.parent = self.state.stack[-1] if self.state.stack else self.tracer.root
        if not self.state.stack:
            self.tracer.root = self.span_id
        self.state.stack.append(self.span_id)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        self.state.stack.pop()
        if self.tracer.root == self.span_id:
            self.tracer.root = self.parent
        self.tracer._record(self.state, self.span_id, self.parent, self.name, self.start, end)
        return False


def busy_time(spans) -> Counter:
    """Summed span duration per name (across threads)."""
    total: Counter = Counter()
    for _, _, _, name, start, end, _ in spans:
        total[name] += end - start
    return total


def self_time(spans) -> Counter:
    """Per name: busy time minus the time its child spans on the same thread cover.

    Spans on one thread nest strictly, so their children never overlap and the
    covered time is the sum of the children's durations.
    """
    by_id = {s[1]: s for s in spans}
    covered: Counter = Counter()
    for _, _, parent, _, start, end, thread in spans:
        owner = by_id.get(parent)
        if owner is not None and owner[6] == thread:
            covered[parent] += end - start
    total: Counter = Counter()
    for _, span_id, _, name, start, end, _ in spans:
        total[name] += (end - start) - covered[span_id]
    return total


def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals, which may overlap across threads."""
    length = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                length += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        length += cur_end - cur_start
    return length
