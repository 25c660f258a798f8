"""In-memory span recording for the traced benchmark run.

A :class:`Tracer` replaces functions of the program, under the names their
callers look up, with wrappers that record one span per call: name, start,
end, parent span and a few counts measured at the call (tokens, bytes,
computed FLOPs). Spans stay in memory; :func:`aggregate` turns them into
per-name totals once a round of the pipeline has ended.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# counts that report their largest value per round instead of their sum
MAX_COUNTS = frozenset({"logits_mb"})


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the parent span in the tracer's list, -1 at top
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; installs and removes wrappers around callables."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.active = True
        self._clock = clock
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        """Record the enclosed block as a span; yields its counts dict."""
        if not self.active:
            yield {}
            return
        rec = Span(name, self._clock(), parent=self._stack[-1] if self._stack else -1)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec.counts
        finally:
            rec.end = self._clock()
            self._stack.pop()

    def wrap(self, owner, attr, name, measure=None):
        """Replace ``owner.attr`` by a recording wrapper named ``name``.

        ``measure(args, kwargs, result)`` returns counts for the span; it
        runs after the span's end time is taken.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            with tracer.span(name) as counts:
                result = original(*args, **kwargs)
            if measure is not None:
                counts.update(measure(args, kwargs, result))
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        """Restore every wrapped callable, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Run the enclosed block without recording spans."""
        self.active = False
        try:
            yield
        finally:
            self.active = True


def self_times(spans):
    """Each span's duration minus the part of it its direct children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def aggregate(spans):
    """name -> {"s", "self_s", "calls", counts...} summed over ``spans``."""
    out = {}
    for s, self_s in zip(spans, self_times(spans)):
        agg = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        agg["s"] += s.end - s.start
        agg["self_s"] += self_s
        agg["calls"] += 1
        for key, value in s.counts.items():
            if key in MAX_COUNTS:
                agg[key] = max(agg.get(key, value), value)
            else:
                agg[key] = agg.get(key, 0) + value
    return out
