"""Shared recovery-aware planning helpers for the plan-based
optimizers (annealer, GA).

Both optimizers decode job-priority permutations against the packing
model; under disruptions they need the same two adjustments before
packing, factored here so the logic cannot drift between them:

* :func:`effective_jobs` — checkpoint-restarted jobs only have their
  *remaining* runtime left; plan with that instead of the original
  duration. On undisrupted runs the mapping is empty and the original
  ``Job`` objects pass through untouched (bit-identical planning).
* :func:`split_unpackable` — with nodes failed (offline and not
  restored by any release in the planning horizon) a job can exceed
  the profile's eventual capacity and would never pack; such jobs are
  parked (planned at ``+inf``) until repairs restore capacity instead
  of crashing the packer. Skipped entirely on healthy clusters.

With a non-flat :class:`~repro.sim.topology.ClusterTopology` the view
additionally carries per-domain free capacity, and this module grows
the *spread-across-domains* placement helpers: :func:`domain_pressures`
(announced domain-scoped drain load per rack),
:func:`fits_healthy_domain` (can a requeued job restart somewhere
*outside* the failing/draining domain?), and :func:`spread_requeue`
(demote requeued jobs that currently have no healthy domain to restart
into). All of them are identity/no-op on flat topologies, so
recovery-aware policies stay byte-identical on legacy runs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from repro.sim.job import Job
from repro.sim.simulator import SystemView


def effective_jobs(view: SystemView, jobs: Sequence[Job]) -> list[Job]:
    """Remap *jobs* to their remaining runtimes (no-op when none)."""
    rem = view.remaining_runtimes
    if not rem:
        return list(jobs)
    return [
        replace(j, duration=rem[j.job_id]) if j.job_id in rem else j
        for j in jobs
    ]


def split_unpackable(
    view: SystemView,
    jobs: Sequence[Job],
    releases: Iterable[tuple[float, float, float]],
) -> tuple[list[Job], list[Job]]:
    """Split *jobs* into (packable, unpackable) against the eventual
    capacity of a planning profile built from *releases*.

    *releases* is whatever ``(time, nodes, memory_gb)`` stream the
    caller packs with — running-job completions, plus drain notches
    for drain-aware planners. Eventual capacity is current free plus
    every delta; node capacity is non-decreasing outside drain notches,
    so a job fits some interval iff it fits the eventual capacity.
    """
    if view.nodes_offline <= 0:
        return list(jobs), []
    releases = tuple(releases)  # summed twice; a generator would be spent
    eventual_nodes = view.free_nodes + sum(r[1] for r in releases)
    eventual_mem = view.free_memory_gb + sum(r[2] for r in releases)
    packable: list[Job] = []
    unpackable: list[Job] = []
    for j in jobs:
        if j.nodes <= eventual_nodes and j.memory_gb <= eventual_mem + 1e-9:
            packable.append(j)
        else:
            unpackable.append(j)
    return packable, unpackable


# ---------------------------------------------------------------------------
# Spread-across-domains placement (topology-aware recovery)
# ---------------------------------------------------------------------------

def domain_pressures(view: SystemView) -> tuple[int, ...]:
    """Per-rack node count claimed by announced, not-yet-started,
    domain-scoped drains.

    An announced rack drain is *one* capacity notch against that rack
    — never N per-node events — so the pressure for rack *r* is the
    peak of its scoped windows' node counts (windows on one domain
    come from one maintenance plan; overlapping re-announcements do
    not stack). Unscoped drains have no domain to charge and are
    already handled by the aggregate ``drain_safe`` capacity test.
    Empty for flat/absent topologies.
    """
    topo = view.topology
    if topo is None or topo.is_flat:
        return ()
    pressure = [0] * topo.n_racks
    for d in view.upcoming_drains:
        if d.domain is None or d.start <= view.now:
            continue
        nodes = topo.domain_range(d.domain)
        for rack in range(
            topo.rack_of(nodes.start), topo.rack_of(nodes.stop - 1) + 1
        ):
            pressure[rack] = max(pressure[rack], d.nodes)
    return tuple(pressure)


def fits_healthy_domain(
    view: SystemView,
    job: Job,
    pressures: "tuple[int, ...] | None" = None,
) -> bool:
    """Can *job* start inside at least one domain that is neither
    failing nor about to drain out from under it?

    Single-rack jobs need one rack with enough healthy capacity. Jobs
    wider than one rack necessarily spread across racks, but can still
    live inside a single *switch group*: they fit healthily when some
    group's racks jointly offer the nodes after subtracting announced
    drain pressure. Jobs wider than a whole switch group span groups
    no matter what — the aggregate drain/capacity tests govern them
    (vacuously True here, as for flat/absent topologies). Used to keep
    requeued work from being restarted straight back into the domain
    whose shock or announced drain just evicted it.
    """
    if not view.has_domains:
        return True
    topo = view.topology
    if pressures is None:
        pressures = domain_pressures(view)
    free = view.domain_free_nodes
    if job.nodes > topo.rack_size:
        if job.nodes > topo.rack_size * topo.racks_per_switch:
            return True
        # Switch-group level: spread across the group's racks, but stay
        # behind one healthy switch.
        for switch in range(topo.n_switches):
            lo = switch * topo.racks_per_switch
            hi = min(lo + topo.racks_per_switch, topo.n_racks)
            group_free = sum(
                free[r] - (pressures[r] if pressures else 0)
                for r in range(lo, hi)
                if free[r] > (pressures[r] if pressures else 0)
            )
            if job.nodes <= group_free:
                return True
        return False
    for rack, rack_free in enumerate(free):
        drained = pressures[rack] if pressures else 0
        if job.nodes <= rack_free - drained:
            return True
    return False


def healthy_domain_mask(
    view: SystemView,
    nodes: np.ndarray,
    pressures: "tuple[int, ...] | None" = None,
) -> np.ndarray:
    """Vectorized :func:`fits_healthy_domain` over a node-count column.

    One boolean per entry of *nodes* (a per-job node-request vector in
    any order the caller likes), elementwise-identical to calling the
    scalar predicate per job: the test depends on a job only through
    its node count, so the three placement levels collapse to three
    scalar capacity ceilings computed once —

    * single-rack jobs (``nodes <= rack_size``) need the best rack's
      post-pressure headroom,
    * switch-group jobs need the best group's summed *positive*
      headroom (racks at or below their drain pressure contribute
      nothing, exactly like the scalar loop's ``free > pressure``
      guard),
    * group-spanning jobs are vacuously True.

    All-True (no copy semantics beyond one array) when the view has no
    real failure domains.
    """
    n = len(nodes)
    if not view.has_domains:
        return np.ones(n, dtype=bool)
    topo = view.topology
    if pressures is None:
        pressures = domain_pressures(view)
    free = np.asarray(view.domain_free_nodes, dtype=np.int64)
    if pressures:
        headroom = free - np.asarray(pressures, dtype=np.int64)
    else:
        headroom = free
    rack_cap = int(headroom.max())
    rack_size = topo.rack_size
    group_size = rack_size * topo.racks_per_switch
    nodes = np.asarray(nodes)
    mask = nodes <= rack_cap
    over_rack = nodes > rack_size
    if over_rack.any():
        positive = np.maximum(headroom, 0)
        starts = np.arange(0, topo.n_racks, topo.racks_per_switch)
        group_cap = int(np.add.reduceat(positive, starts).max())
        np.copyto(mask, nodes <= group_cap, where=over_rack)
        mask |= nodes > group_size
    return mask


def spread_requeue(view: SystemView, jobs: Sequence[Job]) -> list[Job]:
    """Stable reorder of *jobs* demoting requeued jobs with no healthy
    domain to restart into.

    Requeued jobs (present in ``view.remaining_runtimes``) that
    :func:`fits_healthy_domain` rejects move to the back of the order
    — they wait for repairs / drain ends instead of being re-placed in
    the failing domain — while everything else keeps its relative
    order. Identity on flat topologies and undisrupted runs (no
    remapping, no reorder), so plan-based optimizers consuming this are
    bit-identical there.
    """
    if not view.has_domains or not view.remaining_runtimes:
        return list(jobs)
    pressures = domain_pressures(view)
    healthy: list[Job] = []
    parked: list[Job] = []
    for job in jobs:
        if job.job_id in view.remaining_runtimes and not fits_healthy_domain(
            view, job, pressures
        ):
            parked.append(job)
        else:
            healthy.append(job)
    return healthy + parked
