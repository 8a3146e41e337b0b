"""Resource-profile packing: the optimizer's schedule model.

A :class:`ResourceProfile` is a stepwise-constant timeline of free
(node, memory) capacity with breakpoints at reservation starts/ends and
at the expected release times of already-running jobs. The serial
schedule-generation scheme (:meth:`SerialPacker.pack`) places a
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
  :meth:`ResourceProfile.restore`), which :class:`SerialPacker` uses
  to start every candidate permutation from the same base timeline;
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
from dataclasses import dataclass
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

        For a reservation whose feasibility is already established —
        a start just returned by :meth:`earliest_start` against this
        exact profile state. The check in :meth:`reserve` can only fire
        on caller error, and it costs a second pass over the reserved intervals
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
    """One job placement of the plan the annealer adopts."""

    job: Job
    start: float


class SerialPacker:
    """Serial schedule generation for one replanning event: each
    :meth:`pack` restores the base profile (free capacity + expected
    releases) and places a whole candidate order. ``jobs_packed`` counts
    the placements; the annealer's ``packed_jobs`` extra sums it."""

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
        self.jobs_packed = 0

    def pack(self, order: Sequence[Job]) -> tuple[list[float], float, float]:
        """Place *order*, in order, each job at its earliest fit.

        Returns ``(starts, latest end, sum of ends)``: the start of each
        job of *order*, and the two values the annealer's objective
        reads, so scoring a candidate builds no per-job objects. The
        latest end is ``now`` for an empty order. The sum is a plain
        left-to-right fold, not builtin ``sum()``: from Python 3.12
        ``sum()`` compensates float rounding, so the annealer's accept
        test — and every seeded plan — would depend on the interpreter.
        The fold is the value ``sum()`` returned on 3.11, where the
        goldens were recorded.
        """
        profile = self._profile
        profile.restore(self._base)
        now = self._now
        starts: list[float] = []
        latest = now
        total = 0.0
        for job in order:
            duration = job.duration
            start = profile.earliest_start(
                job.nodes, job.memory_gb, duration,
                not_before=max(now, job.submit_time),
            )
            profile.reserve_trusted(
                start, duration, job.nodes, job.memory_gb
            )
            starts.append(start)
            end = start + duration
            if end > latest:
                latest = end
            total += end
        self.jobs_packed += len(starts)
        return starts, latest, total
