"""In-memory spans around the calls into each tlk module.

The traced run installs wrappers on module-level names of ``tlk``
modules from outside (the program is not edited) and opens spans of its
own around the calls it makes.  Spans stay in memory; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # [name, start, end, parent index]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, self.clock(), 0.0, parent])

    def close(self) -> None:
        self.spans[self.stack.pop()][2] = self.clock()

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def wrap_outermost(self, name: str, fn):
        """For a function that recurses through its own global name:
        only the outermost call opens a span."""
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
                depth[0] -= 1

        return wrapper

    def wrap_generator(self, name: str, fn):
        """Each step of the generator is a span of its own, so the work
        done between steps is charged to whoever consumes it."""

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close()
                yield item

        return wrapper

    def install(self, module, attr: str, wrapper) -> None:
        self._installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- summaries ----------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: (inclusive seconds, self seconds, span count)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child_time[i]
            count[name] += 1
        return inclusive, own, count
