"""In-memory span recorder for timing wrapped calls in one process.

Each call becomes a span with a name, a duration and the span that was open
when it started (its parent). Spans are aggregated per name as they close:
durations, self times (duration minus the time covered by direct children)
and counters. Nothing is written until `dump`.
"""

from __future__ import annotations

import base64
import functools
import json
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.durations = defaultdict(lambda: array("d"))
        self.self_times = defaultdict(lambda: array("d"))
        self.values = defaultdict(list)
        self.counts = Counter()
        self.first_entry = None
        self._stack = []  # [name, start, seconds covered by closed children, keep self]

    def enter(self, name: str, keep_self: bool = False) -> None:
        self._stack.append([name, self.clock(), 0.0, keep_self])

    def exit(self) -> float:
        name, start, covered, keep_self = self._stack.pop()
        duration = self.clock() - start
        self.durations[name].append(duration)
        if keep_self:
            self.self_times[name].append(duration - covered)
        self.counts[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def within(self, name: str) -> bool:
        """True while a span called `name` is open."""
        return any(frame[0] == name for frame in self._stack)

    def mark_entry(self) -> None:
        """Remember the clock at the first call into the command's real work."""
        if self.first_entry is None:
            self.first_entry = self.clock()

    def wrap(self, name: str, fn, after=None, entry: bool = False, keep_self: bool = False):
        """Return `fn` timed as span `name`.

        `after(tracer, result, args, kwargs)` runs once the span has closed, so
        its own cost is not charged to the span. `entry` marks the command's
        first call into real work; `keep_self` records the span's self times.
        """

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if entry:
                self.mark_entry()
            self.enter(name, keep_self)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return timed

    def dump(self, path) -> None:
        doc = {
            "first_entry": self.first_entry,
            "counts": dict(self.counts),
            "values": dict(self.values),
            "durations": {k: _pack(v) for k, v in self.durations.items()},
            "self_times": {k: _pack(v) for k, v in self.self_times.items()},
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def load(path) -> dict:
    """Read a record written by `Tracer.dump`, with span times as float arrays."""
    with open(path) as f:
        doc = json.load(f)
    for key in ("durations", "self_times"):
        doc[key] = {k: _unpack(v) for k, v in doc[key].items()}
    return doc


# Span times travel as base64 of native doubles: a traced training run closes
# about half a million spans, which JSON text would take a second to write.
def _pack(values: array) -> str:
    return base64.b64encode(values.tobytes()).decode("ascii")


def _unpack(text: str) -> array:
    values = array("d")
    values.frombytes(base64.b64decode(text))
    return values
