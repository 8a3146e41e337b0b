"""Columnar decision layer: vectorized projections of the queue.

PR 6's flat-array engine made the *event loop* queue-depth-insensitive,
but schedulers still pulled state through per-:class:`~repro.sim.job.Job`
facades one attribute at a time — the decision path re-materialized
Python attribute reads the SoA core worked hard to avoid. This module
is the scheduler-side counterpart: per-job attribute **columns** built
once per workload, projected onto the current queue as numpy arrays, so
sort/filter-shaped decision kernels run as boolean masks and one
argmin over a precomputed rank instead of per-job key lambdas.

Three layers, matching how often each changes:

* :class:`JobColumns` — one array per job attribute, indexed by
  workload position. Built **once per run** (lazily, on the first
  columnar access) and shared by every view of that run; the no-copy
  property test pins exactly this sharing. A sort key ``(attribute,
  job_id)`` never changes during a run, so each key in use also gets
  one **rank column** here (:meth:`JobColumns.rank`): the only sort of
  the run. Picking the queue's first job by that key is then a
  selection, not a sort.
* :class:`QueueColumns` — the queue snapshot: a private copy of the
  engine's queued positions over the run's job list, selecting over
  the masters. Taken only when the queue actually changes and never
  aliasing a container the engine goes on mutating, so a retained view
  keeps the queue of its own instant. Everything read from it is
  cached per copy — the ``queued`` tuple, built only for a reader that
  asks for it, and the gathered columns — so a stable backlog pays
  zero per-decision build or gather cost. A reader that walks the
  queue in order (EASY backfill) iterates the snapshot itself and
  builds neither.
* :class:`ViewColumns` — the per-view handle returned by
  :meth:`~repro.sim.simulator.SystemView.columns`: queue columns plus
  the view's capacity scalars/vectors and the derived per-decision
  masks (``fits_mask``), each cached on the view's lifetime.

**Ownership runs one way.** A view owns its :class:`ViewColumns`; the
columns refer back to the view through a weak reference. So a view and
everything it holds (:class:`QueueColumns` and its queue tuple, running
tuples, completion log) form no reference cycle and are freed by
reference count the moment the engine and the scheduler drop the view,
not left to the cyclic collector. The columns are valid while their
view lives, and the only way to reach them is ``view.columns()``.

**Byte-identity is inherited, not re-proven**: columns carry the exact
float/int values the ``Job`` facades hold (no casts through lower
precision), so the lexsort keyed on ``(column, job_id)`` behind a rank
column orders jobs exactly as ``sorted(..., key=...)`` orders the same
tuples, and ranks are unique (ties break on id): the argmin over any
subset of the queue is that subset's first job in sorted order.
Columnar schedulers are digest-pinned against their facade twins on
the full disruption/topology regime matrix.

Hand-built views (tests, bench harnesses) get the same surface with no
engine behind them: the fallback snapshot's job list is ``view.queued``
itself, masters are built from it directly and the selector is the
identity, so the gathered columns *are* the masters — still zero
copies per decision.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import (
    TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.job import Job
    from repro.sim.simulator import SystemView

#: Gatherable per-job attribute columns, in a fixed order.
COLUMN_NAMES = (
    "job_id",
    "nodes",
    "memory_gb",
    "walltime",
    "duration",
    "submit_time",
    "node_seconds",
)

_INT_COLUMNS = frozenset({"job_id", "nodes"})

#: Queue depth below which columnar kernels defer to their facade
#: twins. On short steady-state queues numpy dispatch (gathers, mask
#: construction, fancy indexing, argmin at ~1–10 µs per call) costs more
#: than it saves over a handful of Python attribute reads; the decision
#: microbench puts the break-even near this depth. Because both kernels
#: are byte-identical, switching per decision is invisible to digests —
#: the crossover tunes constants, never observables.
COLUMNAR_MIN_QUEUE = 32


class JobColumns:
    """Immutable per-job attribute arrays for one workload.

    Indexed by workload position (the engine's flat-array index), one
    read-only numpy array per attribute in :data:`COLUMN_NAMES`.
    ``node_seconds`` is materialized as ``nodes * duration`` with the
    same int×float IEEE multiply the :class:`Job` property performs,
    so sorts over the column reproduce facade key tuples exactly.
    """

    __slots__ = ("n", "_ranks") + COLUMN_NAMES

    def __init__(self, jobs: Sequence["Job"]) -> None:
        n = len(jobs)
        self.n = n
        self.job_id = np.fromiter(
            (j.job_id for j in jobs), np.int64, count=n
        )
        self.nodes = np.fromiter((j.nodes for j in jobs), np.int64, count=n)
        self.memory_gb = np.fromiter(
            (j.memory_gb for j in jobs), np.float64, count=n
        )
        self.walltime = np.fromiter(
            (j.walltime for j in jobs), np.float64, count=n
        )
        self.duration = np.fromiter(
            (j.duration for j in jobs), np.float64, count=n
        )
        self.submit_time = np.fromiter(
            (j.submit_time for j in jobs), np.float64, count=n
        )
        self.node_seconds = self.nodes * self.duration
        for name in COLUMN_NAMES:
            getattr(self, name).setflags(write=False)
        self._ranks: dict[str, np.ndarray] = {}

    def rank(self, key: str) -> np.ndarray:
        """Each job's place in the workload sorted by ``(key column,
        job_id)``, by workload position: the inverse permutation of one
        lexsort, built on first use and kept for the run. Smaller rank
        sorts first, and no two jobs share one."""
        rank = self._ranks.get(key)
        if rank is None:
            # lexsort's *last* key is primary; job-id breaks ties.
            order = np.lexsort((self.job_id, getattr(self, key)))
            rank = np.empty(self.n, dtype=np.int64)
            rank[order] = np.arange(self.n, dtype=np.int64)
            rank.setflags(write=False)
            self._ranks[key] = rank
        return rank


class QueueColumns:
    """The queue snapshot: queue-order projection of :class:`JobColumns`.

    ``pos`` holds the workload positions of the queued jobs in queue
    order, indexing *jobs* (``None`` is the identity selector: *jobs*
    already *is* the queue — the hand-built-view fallback). The engine
    hands over an ``array('q')`` copy and the run's job list, which
    nothing mutates, so a snapshot read after later queue changes still
    shows the queue of its own instant. Each read is paid only by a
    reader that needs it: ``n``, ``head``, ``snapshot[k]`` and
    iteration go through the copy (Python scalars, no per-job work
    beyond the jobs actually read); :meth:`as_tuple`
    and the gathered columns are built once and cached, so every view
    of one queue state shares them. The first ``sel`` access wraps the
    copy through the buffer protocol with no per-element conversion.

    ``min_nodes`` is a lower bound on the node requests queued. The
    engine keeps the exact minimum next to the queue and hands it
    over, so a snapshot pays nothing for it; with ``free_nodes`` below
    it no queued job fits, without looking at one. Projections with no
    engine behind them leave it at 0, the bound that rules nothing out.
    """

    __slots__ = (
        "_jobs", "_masters", "_pos", "_sel", "n", "head", "min_nodes",
        "_queued", "_gathered", "_first",
    )

    def __init__(
        self,
        jobs: Sequence["Job"],
        masters: Union[JobColumns, Callable[[], JobColumns]],
        pos: Optional[Sequence[int]],
        min_nodes: float = 0,
    ) -> None:
        self._jobs = jobs
        self._masters = masters
        self._pos = pos
        self._sel: Optional[np.ndarray] = None
        self.n = n = len(jobs) if pos is None else len(pos)
        #: The job at queue position 0, or ``None`` for an empty queue:
        #: what FCFS-shaped policies read, as a plain attribute.
        self.head = (jobs[0] if pos is None else jobs[pos[0]]) if n else None
        self.min_nodes = min_nodes
        self._queued: Optional[tuple["Job", ...]] = None
        self._gathered: dict[str, np.ndarray] = {}
        self._first: dict[str, int] = {}

    @property
    def over_run(self) -> bool:
        """True for an engine snapshot (positions into the run's job
        list, whose columns are gathers from the run's shared masters);
        False for the hand-built fallback, whose first column access
        builds masters over the queue itself."""
        return self._pos is not None

    def __getitem__(self, k: int) -> "Job":
        """The job at queue position *k* (an int; no slices)."""
        pos = self._pos
        return self._jobs[k if pos is None else pos[k]]

    def __iter__(self) -> Iterator["Job"]:
        """The queued jobs in queue order, one at a time off the
        position copy: no tuple and no columns built, and a reader that
        stops early reads no further."""
        pos = self._pos
        jobs = self._jobs
        return iter(jobs) if pos is None else map(jobs.__getitem__, pos)

    def as_tuple(self) -> tuple["Job", ...]:
        """The queued jobs, queue order; built once and cached."""
        queued = self._queued
        if queued is None:
            queued = self._queued = tuple(self)
        return queued

    @property
    def masters(self) -> JobColumns:
        m = self._masters
        if not isinstance(m, JobColumns):
            m = self._masters = m()
        return m

    @property
    def sel(self) -> np.ndarray:
        """Workload positions of the queued jobs, queue order."""
        sel = self._sel
        if sel is None:
            pos = self._pos
            sel = (
                np.arange(self.n, dtype=np.int64) if pos is None
                else np.asarray(pos, dtype=np.int64)
            )
            sel.setflags(write=False)
            self._sel = sel
        return sel

    def _gather(self, name: str, master: np.ndarray) -> np.ndarray:
        if self._pos is None:
            arr = master
        else:
            arr = master[self.sel]
            arr.setflags(write=False)
        self._gathered[name] = arr
        return arr

    def col(self, name: str) -> np.ndarray:
        """Queue-order column *name*; gathered once and cached."""
        arr = self._gathered.get(name)
        if arr is None:
            arr = self._gather(name, getattr(self.masters, name))
        return arr

    def rank(self, key: str) -> np.ndarray:
        """Queue-order :meth:`JobColumns.rank` column for sort *key*;
        gathered once and cached like any other column."""
        name = "rank:" + key
        arr = self._gathered.get(name)
        if arr is None:
            arr = self._gather(name, self.masters.rank(key))
        return arr

    def first_by(self, key: str) -> int:
        """Queue position of the job that sorts first by ``(key,
        job_id)``; computed once per queue change."""
        pos = self._first.get(key)
        if pos is None:
            pos = self._first[key] = int(self.rank(key).argmin())
        return pos


def queue_columns_from_jobs(jobs: Sequence["Job"]) -> QueueColumns:
    """Fallback projection for hand-built views: the queued jobs are
    the snapshot's own job list, masters are built over exactly them on
    first column access, identity selector."""
    return QueueColumns(jobs, partial(JobColumns, jobs), None)


class ViewColumns:
    """The columnar surface of one :class:`SystemView`.

    Queue-order attribute columns (delegated to the underlying
    :class:`QueueColumns`, shared across unchanged-queue decisions)
    plus the vectorized per-decision predicates. At most one instance
    per view, built on the first ``columns()`` call and cached on the
    view itself — repeated calls return the same object, and derived
    masks are computed at most once per decision point.

    The view owns this object; ``_view`` is only a weak reference back
    (call it to get the view), so the pair is no reference cycle. Reach
    the columns through ``view.columns()`` and use them while holding
    the view: once the view is freed they have nothing to read.
    """

    __slots__ = ("_q", "_view", "_fits")

    def __init__(self, queue_cols: QueueColumns, view: "SystemView") -> None:
        self._q = queue_cols
        self._view = weakref.ref(view)
        self._fits: Optional[np.ndarray] = None

    # -- queue-order attribute columns ---------------------------------
    @property
    def n(self) -> int:
        return self._q.n

    @property
    def sel(self) -> np.ndarray:
        return self._q.sel

    @property
    def masters(self) -> JobColumns:
        """The shared per-run master arrays (workload order)."""
        return self._q.masters

    @property
    def ids(self) -> np.ndarray:
        return self._q.col("job_id")

    @property
    def nodes(self) -> np.ndarray:
        return self._q.col("nodes")

    @property
    def memory_gb(self) -> np.ndarray:
        return self._q.col("memory_gb")

    def rank(self, key: str) -> np.ndarray:
        """Queue-order rank by ``(key, job_id)``: see
        :meth:`JobColumns.rank`."""
        return self._q.rank(key)

    def first_by(self, key: str) -> int:
        """Queue position of the smallest :meth:`rank`."""
        return self._q.first_by(key)

    # -- O(1) scalar probes (no gather, no numpy boxing) ---------------
    # Single-position reads take the job off the queue snapshot's
    # position copy, never building the view's queued tuple: its Python
    # scalars compare ~5× faster than boxed numpy scalars pulled out
    # of the masters or ``sel``. Identical values either way — the
    # columns are built from these very attributes.
    def id_at(self, pos: int) -> int:
        return self._q[pos].job_id

    def fits_at(self, pos: int) -> bool:
        """``SystemView.can_fit`` for queue position *pos* — O(1),
        identical arithmetic."""
        view = self._view()
        job = self._q[pos]
        return (
            job.nodes <= view.free_nodes
            and job.memory_gb <= view.free_memory_gb + 1e-9
        )

    # -- vectorized predicates -----------------------------------------
    def fits_mask(self) -> np.ndarray:
        """Boolean mask of queued jobs that fit right now — the
        vectorized twin of ``can_fit`` (same ``+ 1e-9`` slack, same
        comparisons, elementwise)."""
        mask = self._fits
        if mask is None:
            view = self._view()
            mask = (self.nodes <= view.free_nodes) & (
                self.memory_gb <= view.free_memory_gb + 1e-9
            )
            self._fits = mask
        return mask
