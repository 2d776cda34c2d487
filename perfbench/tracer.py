"""Outside-in span tracer for the icmvc benchmark.

The tracer rebinds public names of the ``icmvc`` modules where their callers
look them up (``icmvc.trainer.forward`` is what ``train`` calls, not
``icmvc.network.forward``) and records one span per call: name, start, end
and the enclosing span of the same thread. A layer's number is its self
time: the span's duration minus the time its child spans cover. Nothing in
``icmvc`` is edited; leaving the ``with`` block restores every name.

A name that the program no longer has is recorded in ``Tracer.absent`` and
skipped, so a later change that deletes a public function does not break
the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from dataclasses import dataclass


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: "Span | None"  # enclosing span on the same thread
    end: float = float("nan")
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def ancestor(self, names) -> "Span | None":
        """Nearest enclosing span whose name is in ``names``."""
        node = self.parent
        while node is not None and node.name not in names:
            node = node.parent
        return node


class Tracer:
    """Collects spans in memory; use as a context manager to undo rebinding."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, 0.0, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span)
        span.start = self.clock()
        return span

    def close(self, span: Span):
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- rebinding ---------------------------------------------------------

    def wrap(self, module_name: str, attr: str, name: str, after=None) -> bool:
        """Replace ``module_name.attr`` by a span-recording wrapper.

        ``after(span, result, args, kwargs)`` runs once the span has closed,
        so whatever it computes is charged to the caller, not to ``name``.
        Returns False, and records the name as absent, when the module or
        the attribute does not exist.
        """
        qualified = f"{module_name}.{attr}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(qualified)
            return False
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(qualified)
            return False
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, result, args, kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))
        return True

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- queries -----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name, summed over every call and thread."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_time
        return totals


def max_overlap(spans) -> int:
    """Largest number of the given spans open at one instant."""
    # at equal times a close sorts before an open, so touching spans do not overlap
    events = sorted([(s.start, 1) for s in spans] + [(s.end, -1) for s in spans])
    open_now = best = 0
    for _, step in events:
        open_now += step
        best = max(best, open_now)
    return best
