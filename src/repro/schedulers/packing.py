"""Resource-profile packing: the optimizer's schedule model.

A :class:`ResourceProfile` is a stepwise-constant timeline of free
(node, memory) capacity with breakpoints at reservation starts/ends and
at the expected release times of already-running jobs. The serial
schedule-generation scheme (:func:`pack_order`) places a permutation of
jobs at their earliest feasible start times against the profile — the
classic list-scheduling construction the annealing optimizer searches
over, and the same model EASY backfilling uses for reservations.

The profile is the replanning hot path, so it is engineered for
evaluation throughput:

* breakpoints live in **three plain lists of floats** (times, free
  nodes, free memory) kept sorted with ``bisect`` + ``list.insert``.
  At the paper's sizes a timeline holds 10-50 breakpoints, where one
  numpy dispatch costs more than the whole scalar scan, and no larger
  size measured (up to ~2,000 breakpoints) gave the arrays their cost
  back — so there is one kernel and no size switch;
* the full profile state can be captured and restored in O(k) as three
  list copies (:meth:`ResourceProfile.snapshot` /
  :meth:`ResourceProfile.restore`), which :class:`IncrementalPacker`
  uses to cache prefix-pack states so a candidate permutation differing
  from the incumbent only from position *m* onward re-packs just the
  suffix;
* the earliest-fit query is one early-exit scan that starts at the
  interval holding ``not_before`` and visits each interval at most
  once.

Every query and mutation performs the *same floating-point comparisons
and subtractions in the same order* as the naive ``np.insert`` model
(kept as a test oracle in ``tests/packing_reference.py``), so
placements, objectives, and therefore entire seeded annealing
trajectories are bit-identical — verified by
``tests/test_packing_equivalence.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.sim.job import Job


class PackingError(RuntimeError):
    """Raised when a reservation would drive free capacity negative."""


@dataclass(frozen=True)
class ProfileSnapshot:
    """An O(k) copy of a profile's breakpoint state.

    Immutable by convention: the lists are private copies made by
    :meth:`ResourceProfile.snapshot` and are only copied back by
    :meth:`ResourceProfile.restore`, never aliased by a live profile.
    """

    times: list[float]
    free_nodes: list[float]
    free_memory: list[float]

    @property
    def size(self) -> int:
        return len(self.times)


class ResourceProfile:
    """Stepwise free-capacity timeline supporting earliest-fit queries.

    Parameters
    ----------
    origin:
        Left edge of the timeline (current simulation time); queries
        never return starts before it.
    free_nodes / free_memory_gb:
        Free capacity at the origin.
    releases:
        ``(time, nodes, memory_gb)`` triples for resources that will be
        freed in the future (expected completions of running jobs).
        Times before the origin are clamped to it.
    """

    __slots__ = ("_times", "_fn", "_fm")

    def __init__(
        self,
        origin: float,
        free_nodes: float,
        free_memory_gb: float,
        releases: Iterable[tuple[float, float, float]] = (),
    ) -> None:
        deltas: dict[float, list[float]] = {}
        for time, nodes, mem in releases:
            t = max(float(time), origin)
            slot = deltas.setdefault(t, [0.0, 0.0])
            slot[0] += nodes
            slot[1] += mem
        times = [origin] + sorted(t for t in deltas if t > origin)
        cur_n, cur_m = float(free_nodes), float(free_memory_gb)
        if origin in deltas:
            cur_n += deltas[origin][0]
            cur_m += deltas[origin][1]
        fn, fm = [cur_n], [cur_m]
        for t in times[1:]:
            cur_n += deltas[t][0]
            cur_m += deltas[t][1]
            fn.append(cur_n)
            fm.append(cur_m)
        self._times = times
        self._fn = fn
        self._fm = fm

    # -- views -------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Breakpoint times (a fresh array; inspection only)."""
        return np.array(self._times)

    @property
    def free_nodes(self) -> np.ndarray:
        """Free node capacity per interval (a fresh array)."""
        return np.array(self._fn)

    @property
    def free_memory(self) -> np.ndarray:
        """Free memory capacity per interval (a fresh array)."""
        return np.array(self._fm)

    # -- snapshot / rollback ------------------------------------------------
    def snapshot(self) -> ProfileSnapshot:
        """Capture the full breakpoint state in O(k)."""
        return ProfileSnapshot(
            self._times.copy(), self._fn.copy(), self._fm.copy()
        )

    def restore(self, snap: ProfileSnapshot) -> None:
        """Roll the profile back to *snap* in O(k)."""
        self._times = snap.times.copy()
        self._fn = snap.free_nodes.copy()
        self._fm = snap.free_memory.copy()

    # -- queries ----------------------------------------------------------
    def earliest_start(
        self,
        nodes: float,
        memory_gb: float,
        duration: float,
        not_before: float,
    ) -> float:
        """Earliest ``t >= not_before`` such that ``nodes``/``memory_gb``
        are free throughout ``[t, t + duration)``.

        Raises
        ------
        PackingError
            If no interval ever has enough capacity (request exceeds the
            profile's eventual maximum).
        """
        # Early-exit scan, equivalent interval-by-interval to the
        # oracle's full-vector formula (same clamping arithmetic, same
        # thresholds, same searchsorted sides), so the returned start
        # is bit-identical. Candidate intervals are visited in index
        # order with two provably-safe skips:
        #
        # * intervals ending at or before ``not_before`` can never be
        #   the answer (their clamped start lies in a later interval
        #   checked on its own) — begin at the interval containing
        #   ``not_before``;
        # * when the span check fails at infeasible interval b, every
        #   candidate at or below b also spans b — resume at b + 1.
        #
        # Each interval's feasibility is therefore tested at most once.
        times, fn, fm = self._times, self._fn, self._fm
        k = len(times)
        need_n = nodes - 1e-9
        need_m = memory_gb - 1e-9
        i = bisect_right(times, not_before) - 1
        if i < 0:
            i = 0
        while i < k:
            if fn[i] >= need_n and fm[i] >= need_m:
                start = times[i]
                if start < not_before:
                    start = not_before
                end = start + duration
                i += 1
                while i < k and times[i] < end:
                    if fn[i] >= need_n and fm[i] >= need_m:
                        i += 1
                    else:
                        break
                else:
                    return float(start)
            i += 1
        raise PackingError(
            f"request for {nodes} nodes / {memory_gb:g} GB × "
            f"{duration:g}s never fits this profile"
        )

    def capacity_at(self, time: float) -> tuple[float, float]:
        """Free (nodes, memory) at *time* (clamped to the origin)."""
        i = max(bisect_right(self._times, time) - 1, 0)
        return self._fn[i], self._fm[i]

    # -- mutation -----------------------------------------------------------
    def _ensure_breakpoint(self, t: float) -> int:
        """Insert a breakpoint at *t* if absent; return its index."""
        times, fn, fm = self._times, self._fn, self._fm
        if t > times[-1]:
            # Append fast path: reservations usually extend the tail.
            times.append(t)
            fn.append(fn[-1])
            fm.append(fm[-1])
            return len(times) - 1
        i = bisect_left(times, t)
        if times[i] == t:
            return i
        prev = max(i - 1, 0)
        times.insert(i, t)
        fn.insert(i, fn[prev])
        fm.insert(i, fm[prev])
        return i

    def reserve(
        self, start: float, duration: float, nodes: float, memory_gb: float
    ) -> None:
        """Subtract capacity over ``[start, start + duration)``.

        Raises :class:`PackingError` if the reservation oversubscribes
        any interval (callers should have used :meth:`earliest_start`).
        """
        end = start + duration
        i = self._ensure_breakpoint(start)
        j = self._ensure_breakpoint(end)
        fn, fm = self._fn, self._fm
        need_n = nodes - 1e-9
        need_m = memory_gb - 1e-9
        for x in range(i, j):
            if fn[x] < need_n or fm[x] < need_m:
                raise PackingError(
                    f"reservation [{start:g}, {end:g}) for {nodes} nodes / "
                    f"{memory_gb:g} GB oversubscribes the profile"
                )
        for x in range(i, j):
            fn[x] -= nodes
            fm[x] -= memory_gb

    def reserve_trusted(
        self, start: float, duration: float, nodes: float, memory_gb: float
    ) -> None:
        """:meth:`reserve` without the oversubscription re-check.

        For reservations whose feasibility is already established —
        a start just returned by :meth:`earliest_start` against this
        exact profile state, or the replay of a previously validated
        placement. The check in :meth:`reserve` can only fire on caller
        error, and it costs a second pass over the reserved intervals
        per placement on the replanning hot path.
        """
        i = self._ensure_breakpoint(start)
        j = self._ensure_breakpoint(start + duration)
        fn, fm = self._fn, self._fm
        for x in range(i, j):
            fn[x] -= nodes
            fm[x] -= memory_gb


@dataclass(frozen=True)
class PackedJob:
    """One job placement produced by the packer."""

    job: Job
    start: float

    @property
    def end(self) -> float:
        return self.start + self.job.duration


@dataclass
class PackStats:
    """Work counters one :class:`IncrementalPacker` accumulates.

    ``jobs_packed`` counts real placements (an ``earliest_start``
    search plus a reservation) — the unit the windowed-annealing and
    prefix-GA optimizations minimize; ``jobs_replayed`` counts
    known-reservation replays on the checkpoint-restore path, which
    cost one trusted reserve and no search. The annealer's
    packed-jobs-per-accepted-move figure divides ``jobs_packed`` by
    the consumer's accepted-move count.
    """

    jobs_packed: int = 0
    jobs_replayed: int = 0
    full_packs: int = 0
    suffix_packs: int = 0
    commits: int = 0
    incumbents_saved: int = 0
    incumbents_loaded: int = 0
    incumbents_evicted: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "jobs_packed": self.jobs_packed,
            "jobs_replayed": self.jobs_replayed,
            "full_packs": self.full_packs,
            "suffix_packs": self.suffix_packs,
            "commits": self.commits,
            "incumbents_saved": self.incumbents_saved,
            "incumbents_loaded": self.incumbents_loaded,
            "incumbents_evicted": self.incumbents_evicted,
        }


@dataclass
class _Incumbent:
    """One retained (order, placements, checkpoints) pack state.

    Snapshots are immutable and *shared*: an incumbent committed from a
    ``pack_from`` at pivot *c* keeps every checkpoint at or below *c*
    by reference, so a GA generation whose children share parents'
    prefixes holds one snapshot per distinct prefix state, not one per
    chromosome.
    """

    order: list[Job] = field(default_factory=list)
    placements: list[PackedJob] = field(default_factory=list)
    checkpoints: dict[int, ProfileSnapshot] = field(default_factory=dict)


class IncrementalPacker:
    """Prefix-cached serial schedule generation for one decision state.

    Built once per replanning event from the system snapshot (free
    capacity + expected releases), then used to evaluate many candidate
    permutations. The packer keeps the incumbent order's placements and
    O(k) profile snapshots at checkpoint positions; a candidate that
    shares the incumbent's prefix up to ``pivot`` (an annealing swap at
    positions ``i < j`` shares ``[0, i)``) restores the cached state at
    the pivot and packs only the suffix.

    Checkpoint density is adaptive: every position for small queues,
    every ``n // 96`` positions for large ones (restoring then replays
    at most one stride of already-known reservations — no
    ``earliest_start`` searches — to reach the pivot), bounding memory
    at ~96 snapshots while keeping restores cheap.

    All placements are produced by the identical operation sequence a
    from-scratch pack would perform, so results are bit-identical to
    :func:`pack_order` — the property the annealer's seeded trajectory
    depends on.
    """

    def __init__(
        self,
        *,
        now: float,
        free_nodes: float,
        free_memory_gb: float,
        releases: Iterable[tuple[float, float, float]] = (),
        checkpoint_stride: Optional[int] = None,
        retain_incumbents: int = 0,
    ) -> None:
        self._now = now
        self._profile = ResourceProfile(
            now, free_nodes, free_memory_gb, releases
        )
        self._base = self._profile.snapshot()
        self._stride_override = checkpoint_stride
        # Checkpoint 0 from the start so pack_from() before any pack()
        # degrades to a pivot-0 full pack instead of failing.
        self._inc = _Incumbent(checkpoints={0: self._base})
        #: Retention budget for :meth:`save_incumbent` (0 disables the
        #: cache entirely); oldest saved incumbents are evicted first.
        self._retain_incumbents = retain_incumbents
        self._saved: dict[object, _Incumbent] = {}
        self.stats = PackStats()

    @property
    def _placements(self) -> list[PackedJob]:
        # Back-compat alias used by tests/consumers predating the
        # multi-incumbent cache.
        return self._inc.placements

    def _stride_for(self, n: int) -> int:
        if self._stride_override is not None:
            return max(1, self._stride_override)
        return max(1, n // 96)

    def _place(self, job: Job) -> PackedJob:
        start = self._profile.earliest_start(
            job.nodes, job.memory_gb, job.duration,
            not_before=max(self._now, job.submit_time),
        )
        self._profile.reserve_trusted(
            start, job.duration, job.nodes, job.memory_gb
        )
        self.stats.jobs_packed += 1
        return PackedJob(job, start)

    # -- packing ------------------------------------------------------------
    def pack(self, order: Sequence[Job]) -> list[PackedJob]:
        """Pack *order* from scratch and adopt it as the incumbent."""
        self._profile.restore(self._base)
        stride = self._stride_for(len(order))
        checkpoints = {0: self._base}
        placements: list[PackedJob] = []
        for p, job in enumerate(order):
            if p and p % stride == 0:
                checkpoints[p] = self._profile.snapshot()
            placements.append(self._place(job))
        self._inc = _Incumbent(list(order), placements, checkpoints)
        self.stats.full_packs += 1
        return list(placements)

    def _restore_to(self, pivot: int) -> None:
        """Put the profile in the incumbent's state after ``[0, pivot)``."""
        inc = self._inc
        anchor = max(p for p in inc.checkpoints if p <= pivot)
        self._profile.restore(inc.checkpoints[anchor])
        stride = self._stride_for(len(inc.order))
        for p in range(anchor, pivot):
            pl = inc.placements[p]
            self._profile.reserve_trusted(
                pl.start, pl.job.duration, pl.job.nodes, pl.job.memory_gb
            )
            self.stats.jobs_replayed += 1
            # Densify checkpoints along the replay path so repeated
            # restores near this pivot skip the replay next time.
            nxt = p + 1
            if nxt % stride == 0 and nxt not in inc.checkpoints:
                inc.checkpoints[nxt] = self._profile.snapshot()

    def pack_from(
        self, order: Sequence[Job], pivot: int
    ) -> list[PackedJob]:
        """Speculatively pack *order*, whose first *pivot* entries match
        the incumbent order, re-packing only ``order[pivot:]``. (The
        windowed annealer passes head-only orders, so the frozen tail
        is never packed here at all.)

        Does not change the incumbent; call :meth:`commit` to adopt the
        candidate.
        """
        pivot = min(pivot, len(self._inc.placements))
        self._restore_to(pivot)
        suffix = [self._place(job) for job in order[pivot:]]
        self.stats.suffix_packs += 1
        return self._inc.placements[:pivot] + suffix

    def commit(
        self,
        order: Sequence[Job],
        pivot: int,
        placements: Sequence[PackedJob],
    ) -> None:
        """Adopt a candidate evaluated via :meth:`pack_from` as the new
        incumbent; cached state before *pivot* stays valid (snapshots
        at or below the pivot are carried over by reference)."""
        checkpoints = {
            p: snap for p, snap in self._inc.checkpoints.items() if p <= pivot
        }
        self._inc = _Incumbent(list(order), list(placements), checkpoints)
        self.stats.commits += 1

    # -- incumbent retention (one GA generation) ---------------------------
    def save_incumbent(self, key: object) -> None:
        """Retain the current incumbent under *key*.

        O(1): the incumbent's placements and snapshots are kept by
        reference (both are treated as immutable once saved — a later
        ``pack``/``commit`` replaces ``self._inc`` rather than mutating
        it). When the retention budget is exceeded, the oldest saved
        incumbent is evicted — FIFO, matching the GA's use (parents of
        one generation are saved together and all expire together).
        """
        if self._retain_incumbents <= 0:
            return
        self._saved.pop(key, None)
        self._saved[key] = self._inc
        self.stats.incumbents_saved += 1
        while len(self._saved) > self._retain_incumbents:
            oldest = next(iter(self._saved))
            del self._saved[oldest]
            self.stats.incumbents_evicted += 1

    def load_incumbent(self, key: object) -> bool:
        """Make the incumbent saved under *key* current; False if it
        was never saved or has been evicted."""
        inc = self._saved.get(key)
        if inc is None:
            return False
        self._inc = inc
        self.stats.incumbents_loaded += 1
        return True

    def clear_incumbents(self) -> None:
        """Drop every saved incumbent (GA: start of a new generation)."""
        self._saved.clear()


def pack_order(
    jobs: Sequence[Job],
    *,
    now: float,
    free_nodes: float,
    free_memory_gb: float,
    releases: Iterable[tuple[float, float, float]] = (),
) -> list[PackedJob]:
    """Serial schedule-generation scheme over a job permutation.

    Places each job of *jobs*, in the given order, at its earliest
    feasible start (never before its submit time or *now*) against a
    shared :class:`ResourceProfile`. Later jobs in the order may start
    earlier in time if they fit into gaps — permutations are priority
    lists, not start-time orders.
    """
    profile = ResourceProfile(now, free_nodes, free_memory_gb, releases)
    placements: list[PackedJob] = []
    for job in jobs:
        start = profile.earliest_start(
            job.nodes, job.memory_gb, job.duration,
            not_before=max(now, job.submit_time),
        )
        profile.reserve(start, job.duration, job.nodes, job.memory_gb)
        placements.append(PackedJob(job, start))
    return placements


def plan_makespan(placements: Sequence[PackedJob], now: float) -> float:
    """Makespan of a packed plan measured from *now*."""
    if not placements:
        return 0.0
    return max(p.end for p in placements) - now


def plan_total_completion(placements: Sequence[PackedJob]) -> float:
    """Sum of completion times (the flow-time tiebreak objective)."""
    return float(sum(p.end for p in placements))
