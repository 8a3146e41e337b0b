"""Base class for scheduling policies.

Concrete schedulers implement :meth:`decide`; the default hook
implementations (rejection handling, per-decision metadata) satisfy
:class:`~repro.sim.simulator.SchedulerProtocol` so subclasses only
override what they need.
"""

from __future__ import annotations

from typing import Any

from repro.sim.actions import Action
from repro.sim.columns import COLUMNAR_MIN_QUEUE
from repro.sim.constraints import Violation
from repro.sim.simulator import SystemView


#: What a decision that says nothing about itself reports: one shared
#: empty mapping, so clearing costs no allocation. Never written to —
#: ``_set_meta`` replaces it, and readers copy (``dict(...)``).
_NO_META: dict[str, Any] = {}


class BaseScheduler:
    """Shared plumbing for all scheduling policies.

    Attributes
    ----------
    name:
        Policy identifier used in results and figures.
    emits_stop:
        When True, the simulator grants one final decision query after
        every job has been scheduled so the policy can narrate a
        closing ``Stop`` (the LLM agent does; heuristics don't).
    supports_columns:
        Capability flag: the policy has a columnar decision kernel that
        reads the view's queue snapshot (:attr:`SystemView.queue`, a
        :class:`~repro.sim.columns.QueueColumns`) as numpy columns
        instead of iterating ``Job`` facades. Columnar kernels are
        byte-identical twins of the facade path (digest-pinned); which
        one a decision runs is chosen by :meth:`columnar` from the view
        alone.
    """

    name: str = "base"
    emits_stop: bool = False
    supports_columns: bool = False

    def __init__(self) -> None:
        self._last_meta: dict[str, Any] = _NO_META

    def columnar(self, view: SystemView) -> bool:
        """Should this decision run the columnar kernel?

        True only when the policy has a columnar kernel, the view's
        queue is an engine snapshot, whose columns are gathers from the
        run's shared masters, and it is deep enough to amortize numpy
        dispatch (:data:`~repro.sim.columns.COLUMNAR_MIN_QUEUE`). Short
        queues take the byte-identical facade path, which beats
        vectorization on a handful of jobs, and hand-built views — the
        object-graph test oracle's, and test fixtures' — always do, so
        no decision pays an O(queue) master build just to dispatch. A
        pure constant-factor switch: the twin kernels are digest-pinned
        identical.
        """
        if not self.supports_columns:
            return False
        queue = view.queue
        return queue.over_run and queue.n >= COLUMNAR_MIN_QUEUE

    # -- SchedulerProtocol -------------------------------------------------
    def reset(self) -> None:
        """Clear per-run state. Subclasses with state must extend."""
        self._last_meta = _NO_META

    def decide(self, view: SystemView) -> Action:
        raise NotImplementedError

    def on_rejection(
        self,
        action: Action,
        violations: tuple[Violation, ...],
        view: SystemView,
    ) -> None:
        """Default: ignore (well-behaved heuristics never get here)."""

    def decision_meta(self) -> dict[str, Any]:
        """Metadata attached to the most recent decision record."""
        return self._last_meta

    def collect_extras(self) -> dict[str, Any]:
        """Artifacts to attach to the final ScheduleResult."""
        return {}

    def _set_meta(self, **kwargs: Any) -> None:
        self._last_meta = kwargs

    def _clear_meta(self) -> None:
        """Start a decision with nothing to report. A ``decide`` that
        sets metadata on some paths only calls this first, or the
        paths that set none would hand on the previous decision's."""
        self._last_meta = _NO_META

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"<{type(self).__name__} name={self.name!r}>"
