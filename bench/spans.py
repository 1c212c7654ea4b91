"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, label).  Spans come from wrappers the
benchmark installs around program functions; the program itself is not
edited.  Several dstab modules import the functions they call by name (for
example ``cli``, ``dstability`` and ``devices`` each bind
``check_positive_siso``), so a function is wrapped at every module binding
that refers to it, not only where it is defined.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []    # [name, start, end, parent index or -1, label]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, label: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, label])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, label: str = ""):
        index = self._open(name, label)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, func, label_of=None):
        """``func`` recording a span per call; ``label_of(result)`` may
        attach a label (used for counts such as RK4 steps)."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(name, "")
            try:
                result = func(*args, **kwargs)
                if label_of is not None:
                    self.spans[index][4] = label_of(result)
                return result
            finally:
                self._close(index)

        return traced

    # -- installing --------------------------------------------------------

    def install(self, package: str, targets: dict) -> None:
        """Wrap each function in ``targets`` ({span name: (function,
        label_of)}) at every binding in the modules of ``package``."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, (func, label_of) in targets.items():
            wrapper = self.wrap(name, func, label_of)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "label"], "spans": self.spans}, fh)


class SpanSummary:
    """Totals, self times and call counts by span name, optionally restricted
    to the spans under top-level spans with a given label."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        self.children: dict[int, list[int]] = defaultdict(list)
        self.top = [-1] * len(spans)
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                self.children[parent].append(i)
                self.top[i] = self.top[parent]
            else:
                self.top[i] = i
        self.self_time = [s[2] - s[1] - c for s, c in zip(spans, child_time)]

    def _select(self, name: str, top_label: str | None):
        for i, s in enumerate(self.spans):
            if s[0] == name and (top_label is None or self.spans[self.top[i]][4] == top_label):
                yield i

    def total(self, name: str, top_label: str | None = None) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self._select(name, top_label))

    def self_total(self, name: str, top_label: str | None = None) -> float:
        return sum(self.self_time[i] for i in self._select(name, top_label))

    def calls(self, name: str, top_label: str | None = None) -> int:
        return sum(1 for _ in self._select(name, top_label))

    def labels(self, name: str) -> list:
        return [self.spans[i][4] for i in self._select(name, None)]

    def child_calls(self, name: str, child: str) -> list[int]:
        """For each span ``name``, how many direct children are ``child``."""
        return [sum(1 for c in self.children[i] if self.spans[c][0] == child)
                for i in self._select(name, None)]

    def descendant_calls(self, name: str, ancestor: str) -> int:
        """Spans ``name`` with a span ``ancestor`` above them."""
        count = 0
        for i in self._select(name, None):
            p = self.spans[i][3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            count += p >= 0
        return count
