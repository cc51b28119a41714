"""In-memory spans recorded around calls into swarmdesk, from outside it.

``Tracer.patch`` swaps module attributes for timing wrappers and puts the
originals back when the block ends, also when it raises. Code inside the
package looks its module globals up at call time, so a wrapper on
``codec.quantize_q8`` also catches ``optim.pack_state -> codec.quantize_q8``
without any change to ``src/``.

A span is (name, start, end, parent). Its self time is its duration minus
the part of that interval its child spans cover. With ``memory=True`` the
tracer also records, per span, the tracemalloc peak above the memory in use
when the span opened; ``tracemalloc`` must be running for that.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None = None
    end: float = 0.0
    info: object = None  # what the wrapper's probe extracted from the call
    base: int = 0  # traced bytes in use when the span opened
    high: int = 0  # highest traced bytes seen so far inside the span
    peak: int = 0  # high - base, set when the span closes


class Tracer:
    def __init__(self, memory: bool = False):
        self.spans: list[Span] = []
        self.memory = memory
        self._open: list[int] = []

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        sp = Span(name, 0.0, parent)
        if self.memory:
            cur, high = tracemalloc.get_traced_memory()
            if parent is not None:
                up = self.spans[parent]
                up.high = max(up.high, high)
            tracemalloc.reset_peak()
            sp.base = sp.high = cur
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        return len(self.spans) - 1

    def _exit(self, i: int) -> None:
        sp = self.spans[i]
        sp.end = time.perf_counter()
        self._open.pop()
        if self.memory:
            sp.high = max(sp.high, tracemalloc.get_traced_memory()[1])
            sp.peak = sp.high - sp.base
            if sp.parent is not None:
                up = self.spans[sp.parent]
                up.high = max(up.high, sp.high)
            tracemalloc.reset_peak()

    @contextmanager
    def span(self, name: str):
        i = self._enter(name)
        try:
            yield self.spans[i]
        finally:
            self._exit(i)

    def wrap(self, name: str, fn, probe=None):
        """``fn`` inside a span; ``probe(args, result)`` fills ``span.info``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(i)
            if probe is not None:
                self.spans[i].info = probe(args, result)
            return result

        return traced

    @contextmanager
    def patch(self, targets):
        """Wrap ``(module, attribute, probe)`` targets; restore them on exit.

        Spans are named ``<last part of the module name>.<attribute>``.
        """
        saved = []
        try:
            for module, attr, probe in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                name = f"{module.__name__.rpartition('.')[2]}.{attr}"
                setattr(module, attr, self.wrap(name, fn, probe))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = []
    for sp, kids in zip(spans, children):
        covered, reach = 0.0, sp.start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, sp.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(sp.end - sp.start - covered)
    return out


def roots(spans: list[Span]) -> list[int]:
    """Index of the outermost ancestor of each span (parents come first)."""
    out: list[int] = []
    for i, sp in enumerate(spans):
        out.append(i if sp.parent is None else out[sp.parent])
    return out
