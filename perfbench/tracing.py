"""Spans around calls into episteer's public functions, recorded from outside.

The benchmark changes nothing in the package.  It swaps a module attribute
(for instance ``episteer.harness.solve``) for a wrapper for the length of one
pass and puts the original back afterwards.  The caller looks the name up in
that module at call time, so every call it makes goes through the wrapper.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager


@contextmanager
def patched(replacements):
    """Set ``(module, attribute, value)`` triples; restore the originals on exit."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    try:
        for module, name, value in replacements:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


class Tracer:
    """In-memory span log: name, trace id, parent span, start and end.

    The trace id groups spans of one replication; -1 marks spans that belong
    to no replication (setup, the whole loop, output).  Times are
    ``perf_counter_ns`` values relative to the tracer's creation.
    """

    def __init__(self):
        self.origin = time.perf_counter_ns()
        self.names = []
        self.trace_ids = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.trace_id = -1
        self._stack = []

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.trace_ids.append(self.trace_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter_ns() - self.origin)
        self.ends.append(-1)
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter_ns() - self.origin
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return traced

    def durations(self, name: str) -> list:
        """Wall seconds of every closed span called ``name``."""
        return [(e - s) * 1e-9 for n, s, e in zip(self.names, self.starts, self.ends)
                if n == name and e >= 0]

    def self_seconds(self) -> dict:
        """Per span name, total duration minus the time its child spans cover."""
        own = [(e - s) * 1e-9 for s, e in zip(self.starts, self.ends)]
        for parent, dur in zip(self.parents, list(own)):
            if parent >= 0:
                own[parent] -= dur
        totals = {}
        for name, value in zip(self.names, own):
            totals[name] = totals.get(name, 0.0) + value
        return totals

    def count(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": sid, "name": name, "trace": self.trace_ids[sid],
                    "parent": self.parents[sid], "start_ns": self.starts[sid],
                    "end_ns": self.ends[sid]}) + "\n")
