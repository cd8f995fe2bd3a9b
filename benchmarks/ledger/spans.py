"""In-memory span recorder the traced run binds around layer boundaries.

The program under test is not edited: :meth:`SpanRecorder.wrap` rebinds a
public callable on an instance, a class or a module so that every call
records one span — name, start, end, the span that caused it, and the id
of the client operation it served.  Spans stay in memory until
:meth:`SpanRecorder.write_jsonl`.

Parenthood follows the call stack of each thread.  The load generator is a
single closed-loop client, so a span that opens on a pool thread with an
empty stack is adopted by the innermost span open on the client thread
(``RequestBatcher.run`` fans chunks out to its executor).
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, List, NamedTuple

__all__ = [
    "Span",
    "SpanRecorder",
    "per_span_cost",
    "self_times",
    "layer_seconds",
]

ROOT = -1


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Id of the client operation in progress (set by the harness).
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack: List[int] = []
        self._undo: list = []
        self._paused = False

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._client_stack and self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = ROOT
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, name, parent, self.op, stack, perf_counter()

    def _leave(self, token) -> None:
        end = perf_counter()
        span_id, name, parent, op, stack, start = token
        stack.pop()
        self.spans.append(Span(span_id, name, start, end, parent, op))

    @contextmanager
    def span(self, name: str):
        token = self._enter(name)
        try:
            yield
        finally:
            self._leave(token)

    @contextmanager
    def paused(self):
        """Record nothing meanwhile (the harness's own checking work)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- rebinding -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Rebind ``owner.attr`` (instance, class or module) to record spans.

        ``on_result`` receives each return value, for counts that only the
        layer's own result object carries.
        """
        original = getattr(owner, attr)
        if getattr(original, "_ledger_span", None) == name:
            return
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            token = enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                leave(token)
            if on_result is not None:
                on_result(result)
            return result

        traced._ledger_span = name
        # an instance attribute shadows the class's method and is removed
        # by deleting it; a class or module attribute is put back
        shadows = not isinstance(owner, type) and attr not in vars(owner)
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original, shadows))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original, shadows = self._undo.pop()
            if shadows:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(span._asdict()) + "\n")


def per_span_cost(calls: int = 2000) -> float:
    """Seconds one recorded span adds to a call (measured on a no-op)."""

    class Probe:
        def noop(self):
            return None

    def loop(probe) -> float:
        started = perf_counter()
        for _ in range(calls):
            probe.noop()
        return perf_counter() - started

    probe = Probe()
    bare = loop(probe)
    SpanRecorder().wrap(probe, "noop", "probe")
    return max(0.0, loop(probe) - bare) / calls


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time per span id: its duration minus what its children cover.

    A span is *busy* while it is open and none of its children is.  Pool
    threads make several spans busy at once; an instant with ``k`` busy
    spans gives each ``1/k`` of it, so self times of a trace always sum to
    the wall time its root spans cover, however the work was fanned out.
    """
    spans = [span for span in spans if span.end > span.start]
    by_id = {span.id: span for span in spans}
    # ends before starts at one instant; children close before parents
    # and open after them (a child's id is always the larger)
    moments = sorted(
        [(span.start, 1, span.id) for span in spans]
        + [(span.end, 0, -span.id) for span in spans]
    )
    result = {span.id: 0.0 for span in spans}
    open_children: Dict[int, int] = {}
    busy: set = set()
    previous = moments[0][0] if moments else 0.0
    for moment, opening, key in moments:
        if busy and moment > previous:
            share = (moment - previous) / len(busy)
            for span_id in busy:
                result[span_id] += share
        previous = moment
        span = by_id[abs(key)]
        if opening:
            open_children[span.id] = 0
            busy.add(span.id)
            if span.parent in open_children:
                open_children[span.parent] += 1
                busy.discard(span.parent)
        else:
            busy.discard(span.id)
            del open_children[span.id]
            if span.parent in open_children:
                open_children[span.parent] -= 1
                if not open_children[span.parent]:
                    busy.add(span.parent)
    return result


def layer_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    return totals
