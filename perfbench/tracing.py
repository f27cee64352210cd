"""In-memory span tracer, self time, and latency percentiles.

The tracer wraps calls into each layer's public functions from outside
the program: no program file carries a span. A wrapper replaces one
binding (a module attribute or a class attribute) for the duration of a
traced run and :meth:`Tracer.restore` puts the original object back.

``from x import f`` copies ``f`` into the importing module, so a layer
is wrapped at the binding its caller actually looks up (for example
``repro.harness.runner.execute_fast``, not only
``repro.runtime.fastsim.execute_fast``). Each binding keeps a
reference to the original function, so two wrapped bindings of one
function never nest.

A span's self time is its duration minus the part of its interval
that its child spans cover. Spans opened under a *folded* span are not
recorded, so their time stays in the folded span's self time: the
``ResilientMachine.run`` inside ``record_golden_run`` is golden
recording, not an injected run.
"""

from __future__ import annotations

import importlib
import math
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

# Measures attach counts to a span from the call's arguments, result or
# exception: measure(args, kwargs, result, exc) -> dict.
Measure = Callable[[tuple, dict, Any, "BaseException | None"], dict]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: int  # perf_counter_ns
    end: int = 0
    attrs: dict = field(default_factory=dict)
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "start_ns": self.start, "end_ns": self.end, "attrs": self.attrs,
        }


class Tracer:
    """Records spans around wrapped calls; restores every binding."""

    def __init__(self, fold: tuple[str, ...] = ()) -> None:
        self.fold = frozenset(fold)
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> Span | None:
        if self._stack and self._stack[-1].name in self.fold:
            return None
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, name,
                    time.perf_counter_ns())
        self.spans.append(span)
        if parent is not None:
            parent.children.append(span.id)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        assert popped is span, "span stack out of order"

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        assert not self._stack, "take() inside an open span"
        spans, self.spans = self.spans, []
        return spans

    @contextmanager
    def span(self, name: str) -> Iterator[Span | None]:
        span = self._open(name)
        try:
            yield span
        finally:
            if span is not None:
                self._close(span)

    def wrapper(self, name: str, fn: Callable, measure: Measure | None = None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            if span is None:
                return fn(*args, **kwargs)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                tracer._close(span)
                if measure is not None:
                    span.attrs.update(measure(args, kwargs, result, exc))

        return traced

    # -- installing wrappers ----------------------------------------------

    def install(self, targets: list[tuple[str, str, str, Measure | None]]) -> None:
        """Wrap each ``(owner path, attribute, span name, measure)``.

        The owner path names a module (``repro.harness.runner``) or a
        class inside one (``repro.arch.core:InOrderCore``).
        """
        for owner_path, attr, name, measure in targets:
            owner = resolve_owner(owner_path)
            # Save the owner's own binding (absent for an inherited
            # method) so restore() puts back exactly what was there.
            self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, self.wrapper(name, getattr(owner, attr), measure))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()


_MISSING = object()


def resolve_owner(path: str) -> object:
    module_name, _, class_name = path.partition(":")
    owner: object = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner


# -- self time -------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time (ns) of every span: duration minus the union of the
    intervals its direct children cover (children may overlap)."""
    out: dict[int, int] = {}
    for span in spans:
        covered = 0
        cur_start = cur_end = None
        for child in sorted((spans[c] for c in span.children),
                            key=lambda s: s.start):
            start, end = max(child.start, span.start), min(child.end, span.end)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[span.id] = span.duration - covered
    return out


# -- percentiles -------------------------------------------------------------


def tail_percentile(samples: int, beyond: int = 10) -> int | None:
    """The highest whole percentile that leaves at least ``beyond``
    samples above it, or None when there are too few samples."""
    if samples < 2 * beyond:
        return None
    # Largest pct with samples * (100 - pct) / 100 >= beyond, in integers.
    return 100 - -(-100 * beyond // samples)


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile (``pct`` in 1..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]
