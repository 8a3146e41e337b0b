"""Resource-profile packing: the optimizer's schedule model.

A :class:`ResourceProfile` is a stepwise-constant timeline of free
(node, memory) capacity with breakpoints at reservation starts/ends and
at the expected release times of already-running jobs. The serial
schedule-generation scheme (:meth:`IncrementalPacker.pack`) places a
permutation of jobs, in order, each at its earliest feasible start
against the profile (later jobs may start earlier in time if they fit
a gap: permutations are priority lists) — the
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
  uses to cache the annealer's incumbent at checkpoint positions so a
  candidate permutation differing from it only from position *m*
  onward re-packs just the suffix;
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
from typing import Iterable, Sequence

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
    search plus a reservation) — the annealer's ``packed_jobs`` extra
    sums it over replans; ``jobs_replayed`` counts known-reservation
    replays on the checkpoint-restore path, which cost one trusted
    reserve and no search.
    """

    jobs_packed: int = 0
    jobs_replayed: int = 0
    full_packs: int = 0
    suffix_packs: int = 0
    commits: int = 0


@dataclass
class _Incumbent:
    """The current (order, placements, checkpoints) pack state.

    Snapshots are immutable and *shared*: an incumbent committed from a
    ``pack_from`` at pivot *c* keeps every checkpoint at or below *c*
    by reference, so an accepted annealing move copies no snapshot.
    """

    order: list[Job] = field(default_factory=list)
    placements: list[PackedJob] = field(default_factory=list)
    checkpoints: dict[int, ProfileSnapshot] = field(default_factory=dict)


class IncrementalPacker:
    """Prefix-cached serial schedule generation for one decision state.

    Built once per replanning event from the system snapshot (free
    capacity + expected releases), then used to evaluate many candidate
    permutations. The packer keeps one incumbent — the order last
    packed or committed — with its placements and O(k) profile
    snapshots at checkpoint positions; a candidate that shares the
    incumbent's prefix up to ``pivot`` (an annealing swap at positions
    ``i < j`` shares ``[0, i)``) restores the cached state at the pivot
    and packs only the suffix.

    Checkpoint density is adaptive: every position for small queues,
    every ``n // 96`` positions for large ones (restoring then replays
    at most one stride of already-known reservations — no
    ``earliest_start`` searches — to reach the pivot), bounding memory
    at ~96 snapshots while keeping restores cheap.

    All placements are produced by the identical operation sequence a
    from-scratch :meth:`pack` would perform, so a suffix re-pack is
    bit-identical to a full pack — the property the annealer's seeded
    trajectory depends on.
    """

    def __init__(
        self,
        *,
        now: float,
        free_nodes: float,
        free_memory_gb: float,
        releases: Iterable[tuple[float, float, float]] = (),
    ) -> None:
        self._now = now
        self._profile = ResourceProfile(
            now, free_nodes, free_memory_gb, releases
        )
        self._base = self._profile.snapshot()
        # Checkpoint 0 from the start so pack_from() before any pack()
        # degrades to a pivot-0 full pack instead of failing.
        self._inc = _Incumbent(checkpoints={0: self._base})
        self.stats = PackStats()

    @staticmethod
    def _stride_for(n: int) -> int:
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
        the incumbent order, re-packing only ``order[pivot:]``.

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


def plan_makespan(placements: Sequence[PackedJob], now: float) -> float:
    """Makespan of a packed plan measured from *now*."""
    if not placements:
        return 0.0
    return max(p.end for p in placements) - now


def plan_total_completion(placements: Sequence[PackedJob]) -> float:
    """Sum of completion times (the flow-time tiebreak objective).

    A plain left-to-right fold, not builtin ``sum()``: from Python 3.12
    ``sum()`` compensates float rounding, so the annealer's accept test
    — and every seeded plan — would depend on the interpreter. The fold
    is the value ``sum()`` returned on 3.11, where the goldens were
    recorded.
    """
    total = 0.0
    for p in placements:
        total += p.end
    return total
