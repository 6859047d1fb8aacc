"""Spans recorded from the benchmark's own files, and their arithmetic.

A span is (name, start, end, parent). ``Tracer.wrap`` replaces a
module-level function reference with a wrapper that opens a span around
every call made through that reference, so the library under test is not
edited. Spans stay in memory until the run ends.

A span's self time is its duration minus the union of its direct
children's intervals, clipped to the span itself.
"""

import functools
import time
from dataclasses import dataclass, field


class HookError(RuntimeError):
    """A hook target does not exist in the library."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` after clipping each to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo))
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is not None and s <= run_end:
            run_end = max(run_end, e)
            continue
        if run_end is not None:
            total += run_end - run_start
        run_start, run_end = s, e
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> list:
    """Per span: duration minus the union of its direct children."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - union_length(children[i], s.start, s.end) for i, s in enumerate(spans)]


@dataclass
class _Hook:
    target: str
    span_name: str
    fired: int = 0


class Tracer:
    """Collects spans through wrapped module attributes.

    ``enabled`` switches recording on and off without unwrapping, so one
    process can alternate traced and untraced calls; a disabled wrapper
    only forwards the call.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.enabled = False
        self.hooks = []
        self._clock = clock
        self._stack = []
        self._patches = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self._clock(), float("nan"), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = self._clock()
        self._stack.pop()

    def wrap(self, module, attr: str, span_name: str, before=None, after=None):
        """Route calls through ``module.attr`` into spans named ``span_name``.

        ``before(args, kwargs)`` runs before the span's clock starts and its
        return value is handed to ``after(span, args, kwargs, result, token)``,
        which runs after the clock stops, also when the call raised (then
        ``result`` is None and ``span.attrs['error']`` names the exception).
        """
        target = f"{module.__name__}.{attr}"
        original = getattr(module, attr, None)
        if not callable(original):
            raise HookError(f"hook target {target} does not exist")
        hook = _Hook(target, span_name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            hook.fired += 1
            token = before(args, kwargs) if before else None
            span = self.open(span_name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
                if after:
                    after(span, args, kwargs, result, token)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))
        self.hooks.append(hook)

    def unwrap_all(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
