"""Recovery-aware planning helpers for the plan-based optimizer (the
annealer).

The annealer decodes job-priority permutations against the packing
model; under disruptions it needs two adjustments before packing:

* :func:`effective_jobs` — checkpoint-restarted jobs only have their
  *remaining* runtime left; plan with that instead of the original
  duration. On undisrupted runs the mapping is empty and the original
  ``Job`` objects pass through untouched (bit-identical planning).
* :func:`split_unpackable` — a job can exceed the profile's eventual
  capacity and would never pack: nodes failed and not restored by any
  release in the planning horizon, or — under the per-node test
  reference ``tests/node_reference.py`` — a whole node's memory
  withheld per running job while the release stream returns only what
  each job asked for. Such jobs are parked (planned at ``+inf``) until
  the cluster can start them instead of crashing the packer.

With a non-flat :class:`~repro.sim.topology.ClusterTopology` the view
additionally carries per-domain free capacity, and this module grows
the *spread-across-domains* placement helpers:
:func:`fits_healthy_domain` (can a requeued job restart somewhere
*outside* the domain whose shock took its nodes?) and
:func:`spread_requeue` (demote requeued jobs that currently have no
healthy domain to restart into). Both are identity/no-op on flat
topologies, so recovery-aware policies stay byte-identical on legacy
runs. Both ask per job: EASY backfill consults the predicate only for
a requeued job that could start right now, too few per decision for a
vectorized form to pay.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

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
    Runs on every replan: no cluster state guarantees that every job
    fits (see the module docstring).
    """
    # One pass, deltas folded left to right from zero — the value
    # builtin ``sum()`` gave on 3.11, independent of the interpreter.
    released_nodes = released_mem = 0
    for _, nodes, mem in releases:
        released_nodes += nodes
        released_mem += mem
    eventual_nodes = view.free_nodes + released_nodes
    eventual_mem = view.free_memory_gb + released_mem
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

def fits_healthy_domain(view: SystemView, job: Job) -> bool:
    """Can *job* start inside at least one domain that still has the
    healthy capacity for it?

    Single-rack jobs need one rack with enough free nodes. Jobs wider
    than one rack necessarily spread across racks, but can still live
    inside a single *switch group*: they fit healthily when some
    group's racks jointly offer the nodes. Jobs wider than a whole
    switch group span groups no matter what — the aggregate
    drain/capacity tests govern them (vacuously True here, as for
    flat/absent topologies). Used to keep requeued work from being
    restarted straight back into the domain whose shock just evicted
    it.
    """
    if not view.has_domains:
        return True
    topo = view.topology
    free = view.domain_free_nodes
    if job.nodes > topo.rack_size:
        if job.nodes > topo.rack_size * topo.racks_per_switch:
            return True
        # Switch-group level: spread across the group's racks, but stay
        # behind one healthy switch.
        per = topo.racks_per_switch
        return any(
            job.nodes <= sum(free[lo : lo + per])
            for lo in range(0, topo.n_racks, per)
        )
    return any(job.nodes <= rack_free for rack_free in free)


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
    healthy: list[Job] = []
    parked: list[Job] = []
    for job in jobs:
        if job.job_id in view.remaining_runtimes and not fits_healthy_domain(
            view, job
        ):
            parked.append(job)
        else:
            healthy.append(job)
    return healthy + parked
