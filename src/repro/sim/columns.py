"""Columnar decision layer: vectorized projections of the queue.

PR 6's flat-array engine made the *event loop* queue-depth-insensitive,
but schedulers still pulled state through per-:class:`~repro.sim.job.Job`
facades one attribute at a time — the decision path re-materialized
Python attribute reads the SoA core worked hard to avoid. This module
is the scheduler-side counterpart: per-job attribute **columns** built
once per workload, projected onto the current queue as numpy arrays, so
sort/filter-shaped decision kernels run as boolean masks and one
argmin over a precomputed rank instead of per-job key lambdas.

Two layers, matching how often each changes:

* :class:`JobColumns` — one array per job attribute a kernel reads,
  indexed by workload position. Built **once per run** (lazily, on the
  first columnar access) and shared by every view of that run; the
  no-copy property test pins exactly this sharing. A sort key
  ``(attribute, job_id)`` never changes during a run, so each key in
  use also gets one **rank column** here (:meth:`JobColumns.rank`):
  the only sort of the run. Picking the queue's first job by that key
  is then a selection, not a sort.
* :class:`QueueColumns` — the queue snapshot, ``view.queue``: a
  private copy of the engine's queued positions over the run's job
  list, selecting over the masters. Taken only when the queue actually
  changes and never aliasing a container the engine goes on mutating,
  so a retained view keeps the queue of its own instant. Everything
  read from it is cached per copy — the ``queued`` tuple, built only
  for a reader that asks for it, the gathered columns and each key's
  first position — so a stable backlog pays zero per-decision build or
  gather cost. A reader that walks the queue in order (EASY backfill)
  iterates the snapshot itself and builds neither. The columnar
  kernels read it and the view's capacity scalars directly; the one
  per-decision predicate, :meth:`QueueColumns.fits_mask`, takes those
  scalars as arguments. The snapshot holds no reference to any view.

**Byte-identity is inherited, not re-proven**: columns carry the exact
float/int values the ``Job`` facades hold (no casts through lower
precision), so the lexsort keyed on ``(column, job_id)`` behind a rank
column orders jobs exactly as ``sorted(..., key=...)`` orders the same
tuples, and ranks are unique (ties break on id): the argmin over any
subset of the queue is that subset's first job in sorted order.
Columnar schedulers are digest-pinned against their facade twins on
the full disruption/topology regime matrix.

Hand-built views (tests, bench harnesses) get the same snapshot class
with no engine behind it: its job list is ``view.queued`` itself,
masters are built from it on first column access and the selector is
the identity, so the gathered columns *are* the masters. The kernels
never dispatch on one (:meth:`~repro.schedulers.base.BaseScheduler.columnar`
takes only engine snapshots), so a decision on a hand-built view never
pays that O(queue) build.
"""

from __future__ import annotations

from functools import partial
from typing import (
    TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.job import Job

#: Gatherable per-job attribute columns, in a fixed order: the ones a
#: kernel reads (``job_id`` is every rank's tie-break).
COLUMN_NAMES = (
    "job_id",
    "nodes",
    "memory_gb",
    "walltime",
    "node_seconds",
)

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
        self.node_seconds = self.nodes * np.fromiter(
            (j.duration for j in jobs), np.float64, count=n
        )
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

    def fits_mask(self, free_nodes: int, free_memory_gb: float) -> np.ndarray:
        """Boolean mask of queued jobs that fit *free_nodes* and
        *free_memory_gb* — the vectorized twin of
        :meth:`~repro.sim.simulator.SystemView.can_fit` (same ``+ 1e-9``
        slack, same comparisons, elementwise). Not cached: a kernel
        asks once per decision."""
        return (self.col("nodes") <= free_nodes) & (
            self.col("memory_gb") <= free_memory_gb + 1e-9
        )


def queue_columns_from_jobs(jobs: Sequence["Job"]) -> QueueColumns:
    """Fallback projection for hand-built views: the queued jobs are
    the snapshot's own job list, masters are built over exactly them on
    first column access, identity selector."""
    return QueueColumns(jobs, partial(JobColumns, jobs), None)

