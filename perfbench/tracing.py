"""Outside-in tracing: spans kept in memory, a counting backend and a
checkpoint probe.

Every span is recorded by the benchmark's own code around a call into a
public function of the program; nothing inside ``src/`` is edited.  A
span is ``(name, start, end, parent, trace)``; spans of one fit or one
request share a trace id.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro.backend import SerialBackend
from repro.runtime.checkpoint import CheckpointStore


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "trace")

    def __init__(self, sid, name, start, parent, trace) -> None:
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace = trace

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans with per-task parents (asyncio tasks copy the context).

    A disabled tracer hands out a shared null context, so untraced code
    runs the same calls with no recording.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def span(self, name: str, trace: object = None):
        if not self.enabled:
            return nullcontext()
        return self._span(name, trace)

    @contextmanager
    def _span(self, name: str, trace: object):
        parent = self._current.get()
        if trace is None and parent is not None:
            trace = parent.trace
        record = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            parent.id if parent is not None else None,
            trace,
        )
        token = self._current.set(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(record)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        """Chrome trace-event JSON (viewable in Perfetto)."""
        if not self.spans:
            return
        origin = min(s.start for s in self.spans)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "pid": os.getpid(),
                "tid": 0,
                "ts": (s.start - origin) * 1e6,
                "dur": s.seconds * 1e6,
                "args": {"id": s.id, "parent": s.parent, "trace": str(s.trace)},
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


class CountingBackend(SerialBackend):
    """The serial kernels, counted and timed at the backend boundary."""

    def __init__(self) -> None:
        self.distance_calls = 0
        self.distance_s = 0.0
        self.swap_candidates = 0
        self.assign_rows = 0
        self._lock = threading.Lock()  # assign runs on executor threads

    def eval_sq_distances(self, cols, point, out, tmp, n, chunk_size=None) -> None:
        start = time.perf_counter()
        super().eval_sq_distances(cols, point, out, tmp, n, chunk_size)
        self.distance_s += time.perf_counter() - start
        self.distance_calls += 1

    def score_swaps(self, trackers, member_records, candidate_records):
        self.swap_candidates += len(candidate_records)
        return super().score_swaps(trackers, member_records, candidate_records)

    def assign_nearest(self, X, reps):
        with self._lock:
            self.assign_rows += len(X)
        return super().assign_nearest(X, reps)


def _listing(directory: Path) -> dict[str, tuple[int, int, int]]:
    try:
        entries = list(os.scandir(directory))
    except FileNotFoundError:
        return {}
    return {
        e.name: (st.st_size, st.st_mtime_ns, st.st_ino)
        for e in entries
        if e.is_file()
        for st in (e.stat(),)
    }


class CheckpointProbe:
    """Times ``CheckpointStore.open``/``complete_phase``/``write_progress``
    from outside, wrapping them on the class while installed, and sizes
    the files each call created or replaced."""

    WRAPPED = ("open", "complete_phase", "write_progress")

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.seconds = 0.0
        self.writes = 0
        self.bytes = 0

    def _account(self, span: Span, directory: Path, before: dict) -> None:
        after = _listing(directory)
        self.seconds += span.seconds
        self.writes += 1
        self.bytes += sum(
            meta[0] for name, meta in after.items() if before.get(name) != meta
        )

    @contextmanager
    def installed(self):
        originals = {name: CheckpointStore.__dict__[name] for name in self.WRAPPED}
        open_ = CheckpointStore.open.__func__
        complete_phase = CheckpointStore.complete_phase
        write_progress = CheckpointStore.write_progress
        probe = self

        def traced_open(cls, directory, **kwargs):
            directory = Path(directory)
            before = _listing(directory)
            with probe.tracer.span("runtime.checkpoint.open") as span:
                store = open_(cls, directory, **kwargs)
            probe._account(span, directory, before)
            return store

        def traced_complete_phase(store, name, state):
            before = _listing(store.directory)
            with probe.tracer.span("runtime.checkpoint.complete_phase") as span:
                complete_phase(store, name, state)
            probe._account(span, store.directory, before)

        def traced_write_progress(store, stage, units, state):
            before = _listing(store.directory)
            with probe.tracer.span("runtime.checkpoint.write_progress") as span:
                write_progress(store, stage, units, state)
            probe._account(span, store.directory, before)

        CheckpointStore.open = classmethod(traced_open)
        CheckpointStore.complete_phase = traced_complete_phase
        CheckpointStore.write_progress = traced_write_progress
        try:
            yield self
        finally:
            for name, original in originals.items():
                setattr(CheckpointStore, name, original)
