"""Outside-in layer tracing for the traced pass.

Everything here wraps *public* calls into ``repro`` from the benchmark's
side of the boundary; nothing under ``src/`` is edited or patched.

* :class:`Tracer` keeps spans ``[name, start, end, parent, op_id]`` in
  memory; :func:`write_spans` dumps them as JSON lines at exit.
* :class:`TracedScheduler` / :class:`TimedBackend` are forwarding proxies
  around a scheduler and an ``LLMBackend``. They keep compact per-call
  records (one tuple per decision) and hand them to the tracer in bulk
  when the cell ends, so the engine's hot loop pays two clock reads and
  one append per decision.
* The proxies forward every attribute they do not time (``name``,
  ``reset``, ``decision_meta``, ``emits_stop``, ``collect_extras`` …),
  so the engine takes the same path as with the bare scheduler; the
  workloads check that traced digests equal untraced ones.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Iterable, Optional

#: Span names without a dot are structure (workload → rep → cell /
#: request); dotted names (``sim.run``) belong to a layer.
STRUCTURAL = frozenset({"workload", "rep", "cell", "request", "client"})


class _Span:
    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        tracer = self._tracer
        tracer.spans[self._index][2] = perf_counter()
        tracer._stack.pop()

    @property
    def index(self) -> int:
        return self._index

    @property
    def seconds(self) -> float:
        span = self._tracer.spans[self._index]
        return span[2] - span[1]


class Tracer:
    """In-memory span recorder (single-threaded; one per thread)."""

    enabled = True

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index_or_None, op_id]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Identifier shared by every span of one operation (cell or
        #: request); bumped by :meth:`next_op`.
        self.op_id = 0

    def next_op(self) -> int:
        self.op_id += 1
        return self.op_id

    def span(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        self._stack.append(index)
        self.spans[index][1] = perf_counter()
        return _Span(self, index)

    def extend(
        self, name: str, parent: Optional[int],
        intervals: Iterable[tuple[float, float]],
    ) -> None:
        """Bulk-add finished child spans recorded by a proxy."""
        op = self.op_id
        self.spans.extend([name, t0, t1, parent, op] for t0, t1 in intervals)

    def coverage(self, root: int) -> float:
        """Share of span *root*'s duration covered by layer spans: one
        minus the self time of the structural spans beneath it."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        inside = [False] * len(spans)
        inside[root] = True
        for i, (_, t0, t1, parent, _) in enumerate(spans):
            if parent is not None and inside[parent]:
                inside[i] = True
                child_time[parent] += t1 - t0
        uncovered = sum(
            (s[2] - s[1]) - child_time[i]
            for i, s in enumerate(spans)
            if inside[i] and s[0] in STRUCTURAL
        )
        total = spans[root][2] - spans[root][1]
        return 1.0 - uncovered / total if total > 0 else 0.0


class _NullSpan:
    __slots__ = ()
    index = None
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


class NullTracer:
    """The untraced pass: every call is a no-op."""

    enabled = False
    _SPAN = _NullSpan()

    def next_op(self) -> int:
        return 0

    def span(self, name: str) -> _NullSpan:
        return self._SPAN


NULL = NullTracer()


def write_spans(path, spans: Iterable[list]) -> None:
    """One JSON object per line: name, start, end, parent, op_id."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op_id in spans:
            fh.write(
                json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op_id": op_id}
                )
                + "\n"
            )


class TracedScheduler:
    """Forwarding proxy that times ``decide`` and ``on_rejection``.

    ``decides`` holds ``(start, end, queue_depth)`` per decision and
    ``rejections`` ``(start, end)`` per rejection callback.
    """

    def __init__(self, inner: Any) -> None:
        self._inner = inner
        self._decide = inner.decide
        self._on_rejection = inner.on_rejection
        # The engine reads these once per decision or per time step;
        # bound here, they skip the slower ``__getattr__`` fallback.
        self.reset = inner.reset
        self.decision_meta = inner.decision_meta
        self.decides: list[tuple[float, float, int]] = []
        self.rejections: list[tuple[float, float]] = []

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def emits_stop(self) -> bool:
        return self._inner.emits_stop

    def decide(self, view: Any) -> Any:
        t0 = perf_counter()
        action = self._decide(view)
        self.decides.append((t0, perf_counter(), len(view.queued)))
        return action

    def on_rejection(self, action: Any, violations: Any, view: Any) -> None:
        t0 = perf_counter()
        self._on_rejection(action, violations, view)
        self.rejections.append((t0, perf_counter()))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class TimedBackend:
    """Forwarding proxy around a public ``LLMBackend``; ``calls`` holds
    ``(start, end, prompt_chars)`` per completion."""

    def __init__(self, inner: Any) -> None:
        self._inner = inner
        self._complete = inner.complete
        self.calls: list[tuple[float, float, int]] = []

    def complete(self, prompt: str, context: Any) -> Any:
        t0 = perf_counter()
        reply = self._complete(prompt, context)
        self.calls.append((t0, perf_counter(), len(prompt)))
        return reply

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)
