"""In-memory spans recorded by the benchmark around calls into qaoabench.

The package itself is not instrumented. The traced run records a span
around each call the benchmark makes, and swaps public names that a
qaoabench module imported from another one (for example
``qaoabench.optimizer.run_noisy_ensemble``) for a wrapper that records a
span and calls the original. The originals are put back when the traced
region ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None          # index of the enclosing span, None at top level
    op: int | None              # index of the timed operation it belongs to
    phase: str                  # "setup", "warmup" or "op"
    start: float
    end: float = 0.0
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; each span knows its parent and its operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.phase = "setup"
        self.op: int | None = None

    @contextlib.contextmanager
    def span(self, name: str, **work):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, parent, self.op, self.phase, time.perf_counter(), work=work)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        """fn wrapped in a span; work(args, kwargs) may describe the call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(work(args, kwargs) if work else {})):
                return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap each "module.attr" of targets; yields the names found absent.

        targets maps a dotted name to (span name, work function or None).
        Every replaced attribute is restored on exit, also on error.
        """
        replaced = []
        absent = []
        try:
            for dotted, (span_name, work) in targets.items():
                mod_name, attr = dotted.rsplit(".", 1)
                module = importlib.import_module(mod_name)
                original = getattr(module, attr, None)
                if original is None:
                    absent.append(dotted)
                    continue
                setattr(module, attr, self.wrap(span_name, original, work))
                replaced.append((module, attr, original))
            yield absent
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)


def maybe_span(tracer: Tracer | None, name: str, **work):
    """tracer.span(...) when tracing, else a context that records nothing."""
    return tracer.span(name, **work) if tracer is not None else contextlib.nullcontext()
