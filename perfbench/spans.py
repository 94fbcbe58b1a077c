"""In-memory spans around the program's public functions.

The tracer replaces a public function by a timing wrapper at every binding
inside the ``topolysemy`` package (``from .x import f`` copies the function
into the importing module, so each copy is replaced), leaving the program's
files untouched.  A name the program no longer defines is recorded as
missing instead of failing the run.

A span is (id, name, start, end, parent, thread, run).  Parents follow the
calling thread's stack; work that ``_util.map_ordered`` hands to its pool
threads is parented to the ``map_ordered`` span, so the tree stays whole
across threads.  ``self_times`` subtracts from each span the part of its
interval that its children cover (the union, since pool children overlap).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

POOL = "_util.map_ordered"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: str
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Record spans for the named functions of one program run.

    ``hooks`` maps a span name to ``fn(span, args, kwargs, result)``, called
    after the function returns, to attach counts read from its arguments
    or result.
    """

    def __init__(self, run: str, hooks: dict[str, Callable] | None = None) -> None:
        self.run = run
        self.hooks = hooks or {}
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        stack = self._stack()
        span_id = self._new_id()
        parent = stack[-1] if stack else getattr(self._local, "adopted", None)
        if name == POOL and args:
            args = (self._adopting(fn_arg=args[0], parent=span_id),) + tuple(args[1:])
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = Span(span_id, name, start, end, parent, threading.get_ident(), self.run)
        hook = self.hooks.get(name)
        if hook is not None:
            hook(span, args, kwargs, result)
        with self._lock:
            self.spans.append(span)
        return result

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]

    def _adopting(self, fn_arg: Callable, parent: int) -> Callable:
        """Run a pool task with `parent` as the root of its thread's stack."""

        def task(item):
            previous = getattr(self._local, "adopted", None)
            self._local.adopted = parent
            try:
                return fn_arg(item)
            finally:
                self._local.adopted = previous

        return task

    def wrap(self, name: str, original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs)

        return traced

    def install(self, names: list[str], package: str = "topolysemy") -> None:
        """Wrap ``<module>.<function>`` names at every binding in the package."""
        modules = [m for key, m in list(sys.modules.items()) if key == package or key.startswith(package + ".")]
        for name in names:
            module_name, _, attr = name.rpartition(".")
            module = sys.modules.get(f"{package}.{module_name}")
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.id, ())
            if min(e, span.end) > max(s, span.start)
        ]
        result[span.id] = (span.end - span.start) - _covered(clipped)
    return result


def root_coverage(spans: list[Span]) -> float:
    """Seconds covered by spans that have no parent."""
    return _covered([(s.start, s.end) for s in spans if s.parent is None])
