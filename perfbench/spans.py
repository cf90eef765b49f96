"""In-memory spans and counters recorded around calls into loopfold.

A Recorder wraps public functions of the package.  Each call becomes a span
(name, start, end, parent, args); spans live in a list until the pass ends,
when they are summarised per name (calls, total, self time) and written as
Chrome Trace Event JSON, which Perfetto and chrome://tracing open.

Self time is a span's duration minus the durations of its direct children.
Children run inside their parent on the one thread, so they never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    parent: Optional[int]        # index of the enclosing span, None at top level
    start_ns: int
    end_ns: int = 0
    children_ns: int = 0
    args: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.children_ns


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def span(self, fn: Callable, name: str | Callable,
             annotate: Optional[Callable] = None) -> Callable:
        """`fn` wrapped so that every call records a span.

        `name` is a string or a function of the call's arguments;
        `annotate(result, *args, **kwargs)` returns a dict stored in the
        span's args once the call has returned.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            span = Span(label, self._open[-1] if self._open else None,
                        time.perf_counter_ns())
            index = len(self.spans)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._open.pop()
                if span.parent is not None:
                    self.spans[span.parent].children_ns += span.duration_ns
            if annotate is not None:
                span.args.update(annotate(result, *args, **kwargs))
            return result
        return traced

    def counting_iter(self, fn: Callable, counter: str) -> Callable:
        """`fn`, returning an iterable, wrapped to count the items it yields."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counters[counter] += 1
                yield item
        return counted

    # -- reading the spans back ------------------------------------------------

    def ancestors(self, span: Span):
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span

    def outermost(self, select: Callable[[Span], bool],
                  exclude_under: Callable[[Span], bool] = lambda s: False) -> list[Span]:
        """Selected spans not nested in another selected one.

        Summing their durations counts no interval twice.  Spans with an
        ancestor for which `exclude_under` holds are left out.
        """
        return [s for s in self.spans
                if select(s) and not any(select(a) or exclude_under(a)
                                         for a in self.ancestors(s))]

    def top_level_ns(self) -> int:
        return sum(s.duration_ns for s in self.spans if s.parent is None)

    def by_name(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration_ns / 1e9
            row["self_s"] += s.self_ns / 1e9
        return out

    def write_chrome_trace(self, path: str, origin_ns: int, meta: dict) -> None:
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": meta.get("workload", "loopfold")}}]
        for s in self.spans:
            events.append({
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (s.start_ns - origin_ns) / 1e3,
                "dur": s.duration_ns / 1e3,
                "args": {**{k: str(v) for k, v in s.args.items()},
                         "self_us": s.self_ns / 1e3},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {k: str(v) for k, v in meta.items()}}, fh)


def install(original, wrapped, modules=None) -> None:
    """Replace `original` by `wrapped` wherever a loopfold module names it.

    Covers both a function's home module and every module that imported
    the name, so calls between modules are recorded too.  `modules`
    restricts the replacement to the listed modules.
    """
    if modules is None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "loopfold" or name.startswith("loopfold."))]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
