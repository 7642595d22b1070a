"""Spans and counts at depthlab's layer boundaries, recorded from outside.

`Tracer.install` replaces a public function or method with a wrapper that
records a span (name, start, end, parent span) and optional counts, and
`uninstall` puts the originals back. Module-level functions are replaced in
every depthlab module that imported them by name, so call sites such as
`training.backpropagate` are covered too. Nothing under `src/` changes.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable

# after(counts, args, result) adds the span's counts once the call returns.
AfterFn = Callable[[dict, tuple, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.record_spans = False
        self._stack: list[list] = []  # [span id, time spent in child spans]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, after: AfterFn | None = None) -> Callable:
        perf = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                self._stack.pop()
                duration = end - start
                self.busy[name] += duration
                self.self_time[name] += duration - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += duration
                if self.record_spans:
                    self.spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """targets: (span name, owner, attribute, after) tuples. An owner that
        is a class gets its attribute replaced; for a module, every depthlab
        module binding the same function object is patched."""
        for name, owner, attr, after in targets:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, after)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "depthlab" or mod_name.startswith("depthlab."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapped)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn as a root span (one benchmark operation)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def summary(self) -> dict:
        return {
            name: {"busy_s": self.busy[name], "self_s": self.self_time[name], "calls": self.calls[name]}
            for name in sorted(self.busy)
        }

