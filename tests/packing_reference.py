"""Naive reference implementation of the packing model.

This module preserves the original, allocation-heavy packer exactly as
it shipped before the incremental kernel rewrite of
:mod:`repro.schedulers.packing`. It is the *executable specification*
of the schedule model: a stepwise-constant free-capacity timeline whose
breakpoints are maintained with ``np.insert`` and rebuilt from scratch
for every permutation evaluation.

It is deliberately slow (O(k) array reallocation per breakpoint, full
rebuild per pack) and deliberately retained — as a test oracle only,
outside the installed package: the randomized equivalence tests
(``tests/test_packing_equivalence.py``) assert that the list-backed
kernel produces **bit-identical** placements and profile states against
it on arbitrary workloads, and ``tests/conftest.py``'s ``naive_packer``
seam substitutes it for the incremental packer in whole simulations.

Do not optimize this module. Behavioral changes here must be mirrored
in :mod:`repro.schedulers.packing` and vice versa.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.schedulers.packing import PackedJob, PackingError
from repro.sim.job import Job


class ReferenceResourceProfile:
    """The original ``np.insert``-based stepwise capacity timeline."""

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
        k = len(times)
        fn = np.empty(k)
        fm = np.empty(k)
        cur_n, cur_m = float(free_nodes), float(free_memory_gb)
        if origin in deltas:
            cur_n += deltas[origin][0]
            cur_m += deltas[origin][1]
        fn[0], fm[0] = cur_n, cur_m
        for i, t in enumerate(times[1:], start=1):
            cur_n += deltas[t][0]
            cur_m += deltas[t][1]
            fn[i], fm[i] = cur_n, cur_m
        self.times = np.array(times)
        self.free_nodes = fn
        self.free_memory = fm

    # -- queries ----------------------------------------------------------
    def earliest_start(
        self,
        nodes: float,
        memory_gb: float,
        duration: float,
        not_before: float,
    ) -> float:
        times = self.times
        k = times.size
        feas = (self.free_nodes >= nodes - 1e-9) & (
            self.free_memory >= memory_gb - 1e-9
        )
        cb = np.concatenate(([0], np.cumsum(~feas)))
        starts = np.maximum(times, not_before)
        ends_idx = np.searchsorted(times, starts + duration, side="left")
        ok = feas & (cb[ends_idx] - cb[np.arange(k)] == 0)
        if k > 1:
            interval_end = np.concatenate((times[1:], [np.inf]))
            ok &= interval_end > not_before
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            raise PackingError(
                f"request for {nodes} nodes / {memory_gb:g} GB × "
                f"{duration:g}s never fits this profile"
            )
        return float(starts[idx[0]])

    # -- mutation -----------------------------------------------------------
    def _ensure_breakpoint(self, t: float) -> None:
        i = int(np.searchsorted(self.times, t, side="left"))
        if i < self.times.size and self.times[i] == t:
            return
        prev = max(i - 1, 0)
        self.times = np.insert(self.times, i, t)
        self.free_nodes = np.insert(self.free_nodes, i, self.free_nodes[prev])
        self.free_memory = np.insert(
            self.free_memory, i, self.free_memory[prev]
        )

    def reserve(
        self, start: float, duration: float, nodes: float, memory_gb: float
    ) -> None:
        end = start + duration
        self._ensure_breakpoint(start)
        self._ensure_breakpoint(end)
        i = int(np.searchsorted(self.times, start, side="left"))
        j = int(np.searchsorted(self.times, end, side="left"))
        if np.any(self.free_nodes[i:j] < nodes - 1e-9) or np.any(
            self.free_memory[i:j] < memory_gb - 1e-9
        ):
            raise PackingError(
                f"reservation [{start:g}, {end:g}) for {nodes} nodes / "
                f"{memory_gb:g} GB oversubscribes the profile"
            )
        self.free_nodes[i:j] -= nodes
        self.free_memory[i:j] -= memory_gb


def reference_pack_order(
    jobs: Sequence[Job],
    *,
    now: float,
    free_nodes: float,
    free_memory_gb: float,
    releases: Iterable[tuple[float, float, float]] = (),
) -> list[PackedJob]:
    """Full-rebuild serial schedule-generation scheme, the one
    :meth:`repro.schedulers.packing.IncrementalPacker.pack` must match."""
    profile = ReferenceResourceProfile(
        now, free_nodes, free_memory_gb, releases
    )
    placements: list[PackedJob] = []
    for job in jobs:
        start = profile.earliest_start(
            job.nodes, job.memory_gb, job.duration,
            not_before=max(now, job.submit_time),
        )
        profile.reserve(start, job.duration, job.nodes, job.memory_gb)
        placements.append(PackedJob(job, start))
    return placements
