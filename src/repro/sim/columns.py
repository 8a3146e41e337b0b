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
* :class:`QueueColumns` — the queue-order projection: a private copy
  of the engine's queued positions, selecting over the masters. Taken
  only when the queue actually changes (the same cadence as the cached
  ``queued`` tuple) and never aliasing a container the engine goes on
  mutating, so a retained view keeps the queue of its own instant;
  gathered columns are cached per copy, so a stable backlog pays zero
  per-decision gather cost.
* :class:`ViewColumns` — the per-view handle returned by
  :meth:`~repro.sim.simulator.SystemView.columns`: queue columns plus
  the view's capacity scalars/vectors and the derived per-decision
  masks (``fits_mask``), each cached on the view's lifetime.

**Byte-identity is inherited, not re-proven**: columns carry the exact
float/int values the ``Job`` facades hold (no casts through lower
precision), so the lexsort keyed on ``(column, job_id)`` behind a rank
column orders jobs exactly as ``sorted(..., key=...)`` orders the same
tuples, and ranks are unique (ties break on id): the argmin over any
subset of the queue is that subset's first job in sorted order.
Columnar schedulers are digest-pinned against their facade twins on
the full disruption/topology regime matrix.

Hand-built views (tests, bench harnesses) get the same surface with no
engine behind them: the fallback builds masters from ``view.queued``
directly and uses the identity selector, so the gathered columns *are*
the masters — still zero copies per decision.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

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
    """Queue-order projection of :class:`JobColumns`.

    ``sel`` holds the workload positions of the queued jobs in queue
    order (``None`` means the identity selector: masters already *are*
    queue order — the hand-built-view fallback). The projection owns
    it: the engine hands over an ``array('q')`` copy, which the first
    ``sel`` access wraps through the buffer protocol with no
    per-element conversion. Gathers are lazy and cached, so they run
    once per queue change, not once per decision.

    ``min_nodes`` is a lower bound on the node requests queued. The
    engine keeps the exact minimum next to the queue and hands it
    over, so a snapshot pays nothing for it; with ``free_nodes`` below
    it no queued job fits, without looking at one. Projections with no
    engine behind them leave it at 0, the bound that rules nothing out.
    """

    __slots__ = ("_masters", "_sel", "n", "min_nodes", "_gathered", "_first")

    def __init__(
        self,
        masters: Union[JobColumns, Callable[[], JobColumns]],
        sel: Optional[Sequence[int]],
        n: int,
        min_nodes: float = 0,
    ) -> None:
        self._masters = masters
        self._sel = sel
        self.n = n
        self.min_nodes = min_nodes
        self._gathered: dict[str, np.ndarray] = {}
        self._first: dict[str, int] = {}

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
            sel = np.arange(self.n, dtype=np.int64)
            sel.setflags(write=False)
            self._sel = sel
        elif not isinstance(sel, np.ndarray):
            sel = np.asarray(sel, dtype=np.int64)
            sel.setflags(write=False)
            self._sel = sel
        return sel

    def _gather(self, name: str, master: np.ndarray) -> np.ndarray:
        if self._sel is None:
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

    def scalar(self, name: str, pos: int):
        """One queue-position read without forcing a full gather —
        O(1) even on the first access of a deep queue."""
        arr = self._gathered.get(name)
        if arr is not None:
            return arr[pos]
        master = getattr(self.masters, name)
        if self._sel is None:
            return master[pos]
        return master[self.sel[pos]]


def queue_columns_from_jobs(jobs: Sequence["Job"]) -> QueueColumns:
    """Fallback projection for hand-built views: masters over exactly
    the queued jobs, identity selector."""
    return QueueColumns(JobColumns(jobs), None, len(jobs))


class ViewColumns:
    """The columnar surface of one :class:`SystemView`.

    Queue-order attribute columns (delegated to the underlying
    :class:`QueueColumns`, shared across unchanged-queue decisions)
    plus the view's capacity scalars and the vectorized per-decision
    predicates. One instance per view, cached on the view itself —
    repeated ``columns()`` calls return the same object, and derived
    masks are computed at most once per decision point.
    """

    __slots__ = ("_q", "_view", "_fits", "_requeued")

    def __init__(self, queue_cols: QueueColumns, view: "SystemView") -> None:
        self._q = queue_cols
        self._view = view
        self._fits: Optional[np.ndarray] = None
        self._requeued: Optional[np.ndarray] = None

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

    @property
    def walltime(self) -> np.ndarray:
        return self._q.col("walltime")

    @property
    def duration(self) -> np.ndarray:
        return self._q.col("duration")

    @property
    def submit_time(self) -> np.ndarray:
        return self._q.col("submit_time")

    @property
    def node_seconds(self) -> np.ndarray:
        return self._q.col("node_seconds")

    def rank(self, key: str) -> np.ndarray:
        """Queue-order rank by ``(key, job_id)``: see
        :meth:`JobColumns.rank`."""
        return self._q.rank(key)

    def first_by(self, key: str) -> int:
        """Queue position of the smallest :meth:`rank`."""
        return self._q.first_by(key)

    # -- capacity scalars/vectors --------------------------------------
    @property
    def free_nodes(self) -> int:
        return self._view.free_nodes

    @property
    def free_memory_gb(self) -> float:
        return self._view.free_memory_gb

    @property
    def min_nodes(self) -> float:
        """No queued job asks for fewer nodes: see
        :class:`QueueColumns`."""
        return self._q.min_nodes

    @property
    def domain_free_nodes(self) -> np.ndarray:
        """Free node count per rack as an int64 vector (empty for
        flat/absent topologies, like the view field it mirrors)."""
        return np.asarray(self._view.domain_free_nodes, dtype=np.int64)

    # -- O(1) scalar probes (no gather, no numpy boxing) ---------------
    # Single-position reads go through the view's queued tuple: the
    # engine materializes it for every view anyway, and its Python
    # scalars compare ~5× faster than boxed numpy scalars pulled out
    # of the masters. Identical values either way — the columns are
    # built from these very attributes.
    def id_at(self, pos: int) -> int:
        return self._view.queued[pos].job_id

    def fits_at(self, pos: int) -> bool:
        """``SystemView.can_fit`` for queue position *pos* — O(1),
        identical arithmetic."""
        view = self._view
        job = view.queued[pos]
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
            view = self._view
            mask = (self.nodes <= view.free_nodes) & (
                self.memory_gb <= view.free_memory_gb + 1e-9
            )
            self._fits = mask
        return mask

    def requeued_mask(self) -> np.ndarray:
        """Mask of queued jobs that were evicted and requeued (present
        in ``remaining_runtimes``) — the population the
        spread-across-domains restart gate applies to."""
        mask = self._requeued
        if mask is None:
            rem = self._view.remaining_runtimes
            if not rem:
                mask = np.zeros(self.n, dtype=bool)
            else:
                # Membership in the view's own mapping, id by id: one
                # hash probe each, no sort-and-search over two arrays.
                mask = np.fromiter(
                    map(rem.__contains__, self.ids.tolist()),
                    dtype=bool,
                    count=self.n,
                )
            self._requeued = mask
        return mask

    def drain_safe_mask(self) -> np.ndarray:
        """Mask of queued jobs that are drain-safe right now.

        All-True with no announced drains (the vacuous fast path every
        undisrupted decision takes, allocation-free beyond one array).
        With drains pending, the per-job capacity test delegates to the
        scalar :meth:`SystemView.drain_safe` — drain decision points
        are rare and the peak-overlap window differs per job, so a
        faithful scalar loop beats a speculative vectorization here.
        """
        view = self._view
        if not view.upcoming_drains:
            return np.ones(self.n, dtype=bool)
        queued = view.queued
        return np.fromiter(
            (view.drain_safe(job) for job in queued),
            dtype=bool,
            count=self.n,
        )
