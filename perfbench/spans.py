"""Host wall-clock spans and call counts recorded from outside the program.

The benchmark times each layer by wrapping the calls into that layer's
public entry points, here, in the benchmark's own files: nothing under
``src/`` changes.  A :class:`Tracer` keeps spans in memory (name,
start, end, and the span that caused it) and counts at the same
boundaries; the workload writes them out when it ends.

Untraced runs use a disabled tracer, whose :meth:`Tracer.span` is a
shared no-op context manager, and patch nothing.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, int, str, float, float]

_NO_SPAN = contextlib.nullcontext()


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[Tuple[int, str]] = []
        self._ids = itertools.count(1)

    def span(self, name: str):
        """Context manager timing one call into layer ``name``."""
        if not self.enabled:
            return _NO_SPAN
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str) -> Iterator[None]:
        span_id = next(self._ids)
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))
            self.counts[name] = self.counts.get(name, 0) + 1

    def inside(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return any(open_name == name for _, open_name in self._stack)

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def top_level_time(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(end - start for _, parent, _, start, end in self.spans if not parent)

    def chrome_events(self) -> List[Dict[str, Any]]:
        """The spans as Chrome trace-event ``X`` records (microseconds)."""
        origin = min((start for *_, start, _ in self.spans), default=0.0)
        return [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, name, start, end in self.spans
        ]


def timed(tracer: Tracer, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
    """``function`` wrapped in a span; nested calls of the same name pass through."""

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if tracer.inside(name):
            return function(*args, **kwargs)
        with tracer.span(name):
            return function(*args, **kwargs)

    return wrapper


def counted(tracer: Tracer, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
    """``function`` wrapped to count its calls without timing them."""

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.count(name)
        return function(*args, **kwargs)

    return wrapper


def rebind(original: Callable[..., Any], replacement: Callable[..., Any], package: str = "repro") -> int:
    """Point every loaded ``package`` module's name for ``original`` at ``replacement``.

    Modules bind imported functions at import time, so wrapping a public
    function means replacing each of those bindings.  Returns the number
    of bindings replaced; the caller checks it is non-zero.
    """
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == package or module_name.startswith(package + ".")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                replaced += 1
    return replaced


def wrap_method(
    tracer: Tracer,
    cls: type,
    attribute: str,
    name: Callable[[Any], Optional[str]],
) -> None:
    """Time ``cls.attribute``; ``name(self)`` picks the span name (``None``: untimed)."""
    original = getattr(cls, attribute)

    @functools.wraps(original)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        span_name = name(self)
        if span_name is None or tracer.inside(span_name):
            return original(self, *args, **kwargs)
        with tracer.span(span_name):
            return original(self, *args, **kwargs)

    setattr(cls, attribute, wrapper)
