"""In-memory spans recorded around satgraph's layer boundaries.

The tracer replaces a function at the module attribute through which one
layer calls another (``satgraph.builder.sample_product_graph`` is what
``build_extension`` calls), so the library itself stays untouched.  Spans
are kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from types import ModuleType
from typing import Callable, Optional


class Tracer:
    """Records (name, start, end, parent, run) spans of wrapped calls.

    ``run`` is set by the caller before each benchmark operation, so every
    span of one build, realization or round trip shares one identifier.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None, run]
        self.run = ""
        self._stack: list[int] = []
        self._patched: list[tuple[ModuleType, str, Callable]] = []

    def wrap(self, module: ModuleType, attr: str, name: str) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [name, 0.0, 0.0, parent, self.run]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child_total = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_total[parent] += end - start
        return [end - start - child_total[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def nesting_errors(self) -> list[str]:
        """Spans that end before they start, leave their parent, or have negative self time."""
        errors = []
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if end < start:
                errors.append(f"span {i} ({name}) ends before it starts")
            if parent is not None:
                _, p_start, p_end, _, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    errors.append(f"span {i} ({name}) lies outside its parent {parent}")
        for i, s in enumerate(self.self_times()):
            if s < 0:
                errors.append(f"span {i} ({self.spans[i][0]}) has negative self time {s}")
        return errors

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fp:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fp.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "run": run},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="ascii") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def self_time_table(
    tracer: Tracer, run_prefix: Optional[str] = None
) -> list[tuple[str, int, float]]:
    """(name, calls, total self seconds) per span name, largest first."""
    totals: dict[str, list] = {}
    for (name, _, _, _, run), own in zip(tracer.spans, tracer.self_times()):
        if run_prefix is None or run.startswith(run_prefix):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += own
    return sorted(((k, c, s) for k, (c, s) in totals.items()), key=lambda r: -r[2])
