"""In-memory spans and counters recorded around calls into fanostat's layers.

Wrappers are installed on the names the package looks up at call time (a
module global, or a method on a class), recorded only while installed, and
removed again afterwards.  A wrapped name that no longer exists is reported
as absent and reads as zero calls, so the benchmark keeps running when a
later change deletes a helper.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Records spans (name, start, end, parent, operation id) and counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = defaultdict(float)
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name):
        self.spans.append(Span(name, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else None, self.op))
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    def count(self, name, value=1):
        self.counters[name] += value

    @contextlib.contextmanager
    def operation(self, name):
        """One benchmark operation: a root span with a fresh operation id."""
        self.op += 1
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, fn, span=None, after=None):
        """Wrap ``fn`` with an optional span and a hook on its result."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                self.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                if span:
                    self.end()
            if after:
                after(result, args, kwargs)
            return result
        return wrapper

    def write(self, path):
        """Write spans and counters as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": self.absent,
                                 "counters": dict(self.counters)}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


class Patches:
    """Replace attributes on modules or classes and restore them later."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def patch(self, owner, attr, make, label):
        """Replace ``owner.attr`` with ``make(original)``; absent -> recorded."""
        if attr not in vars(owner):
            if label not in self.tracer.absent:
                self.tracer.absent.append(label)
            return
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans):
    """Self time per span: its duration minus the part its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_totals(spans):
    """Per span name: number of calls, total self time and total duration."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        calls[s.name] += 1
        self_s[s.name] += own
        total_s[s.name] += s.end - s.start
    return calls, self_s, total_s
