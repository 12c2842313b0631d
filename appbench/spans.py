"""Outside-in tracing for the traced benchmark run.

The benchmark never turns on the engine's own ``Tracer``.  Instead, for each
traced pass it replaces the public entry points of every layer with thin
wrappers that record one span per call (name, start, end, parent, pass id)
and restores the originals right after the pass, so untraced passes run the
program exactly as shipped.

Spans are recorded only on the thread that runs the program (the single
client).  Calls made on shard-pool worker threads pass straight through:
their time shows up as the ``parallel`` span that waits for them.

A span whose direct parent has the same name is not recorded (the parent
already covers it).  This folds recursion (``group_cost``, ``to_source``,
``region_cost``) and same-layer delegation (``execute_lookup`` calling
``execute_prepared``) into one span, so each ``net`` span is one statement.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

# Span record layout (lists, for speed): name, start, end, parent index,
# pass id, and an optional count taken from the wrapped call's result.
NAME, START, END, PARENT, PASS, COUNT = range(6)


class SpanRecorder:
    """Keeps every span of a run in memory; exports them as JSON lines."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = 0
        self._owner = threading.get_ident()
        self._origin = perf_counter()

    def open(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append(
            [name, perf_counter(), 0.0, stack[-1] if stack else -1,
             self.pass_id, None]
        )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    def wrap(
        self,
        name: str,
        function: Callable,
        count: Optional[Callable[[Any], int]] = None,
    ) -> Callable:
        """``function`` with a span around every call on the owner thread."""
        recorder = self
        owner = self._owner
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = recorder._stack
            if get_ident() != owner or (
                stack and recorder.spans[stack[-1]][NAME] == name
            ):
                return function(*args, **kwargs)
            index = recorder.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(index)
            if count is not None:
                recorder.spans[index][COUNT] = count(result)
            return result

        return traced

    def export(self, path) -> None:
        """Write every span as one JSON object per line."""
        origin = self._origin
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span[NAME],
                    "start_ns": round((span[START] - origin) * 1e9),
                    "end_ns": round((span[END] - origin) * 1e9),
                    "parent": span[PARENT] if span[PARENT] >= 0 else None,
                    "pass": span[PASS],
                }
                if span[COUNT] is not None:
                    record["count"] = span[COUNT]
                out.write(json.dumps(record, separators=(",", ":")) + "\n")


@dataclass(frozen=True)
class Probe:
    """One entry point to wrap: ``owner.attribute`` gets span ``name``."""

    owner: Any
    attribute: str
    name: str
    count: Optional[Callable[[Any], int]] = None


class Instrumentation:
    """Installs and removes the wrappers of a probe list."""

    def __init__(self, recorder: SpanRecorder, probes: list[Probe]) -> None:
        self.recorder = recorder
        self.probes = probes
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        for probe in self.probes:
            # Keep exactly what the class or module itself held (None when
            # the attribute is inherited), so removal restores it as it was.
            own = vars(probe.owner).get(probe.attribute)
            self._saved.append((probe.owner, probe.attribute, own))
            setattr(
                probe.owner,
                probe.attribute,
                self.recorder.wrap(
                    probe.name,
                    getattr(probe.owner, probe.attribute),
                    probe.count,
                ),
            )
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attribute, own = self._saved.pop()
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)


def self_times(spans: list[list], first: int, last: int) -> list[float]:
    """Self time of each span in ``spans[first:last]``, same order.

    A span's self time is its duration minus the durations of its direct
    children.  Spans nest strictly on one thread, so the children never
    overlap each other.
    """
    durations = [s[END] - s[START] for s in spans[first:last]]
    child_time = [0.0] * (last - first)
    for offset in range(last - first):
        parent = spans[first + offset][PARENT]
        if parent >= first:
            child_time[parent - first] += durations[offset]
    return [d - c for d, c in zip(durations, child_time)]


def has_ancestor(spans: list[list], index: int, name: str) -> bool:
    """True when some span above ``spans[index]`` is called ``name``."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
