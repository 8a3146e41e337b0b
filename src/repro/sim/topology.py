"""Cluster topology: nodes → racks → switch groups.

The paper's cluster model abstracts topology away (§3.1) — and for the
baseline scheduling comparison that is right. Failures do not respect
that abstraction: real HPC outages take out whole racks (a PDU trips),
or every rack behind one switch (ScalienDB's postmortem in PAPERS.md is
the canonical story of correlated, domain-level faults being what
actually breaks systems). :class:`ClusterTopology` supplies the minimal
hierarchy the disruption subsystem needs to model that — a static
partition of the node index space into contiguous racks, grouped into
contiguous switch groups.

Design constraints:

* **Plain data.** A topology is a frozen dataclass of three ints. It is
  hashable, picklable, and cheap to ship to matrix worker processes;
  the trace a correlated-failure generator builds from it depends only
  on (topology, spec, horizon) — never on which worker runs the cell.
* **The flat default is invisible.** ``ClusterTopology.flat(n)`` is one
  rack spanning the machine; every cluster model defaults to it, and
  every topology-aware code path (domain capacity views, spread
  placement, correlated generators) is gated on ``is_flat`` so existing
  configs and zero-correlation runs take byte-identical code paths.
* **Domains are contiguous node blocks.** Domain membership is a
  ``range`` — no per-node tables, so a 100k-node topology costs the
  same three ints as a 256-node one.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Domain hierarchy levels, outermost last.
DOMAIN_LEVELS: tuple[str, ...] = ("rack", "switch")


@dataclass(frozen=True)
class ClusterTopology:
    """Static node → rack → switch-group hierarchy over ``n_nodes``.

    Nodes ``[r * rack_size, (r+1) * rack_size)`` form rack ``r`` (the
    last rack may be short when ``rack_size`` does not divide
    ``n_nodes``); ``racks_per_switch`` consecutive racks share one
    switch group. Rack and switch-group indices double as *failure
    domains*: a correlated shock takes a contiguous node block inside
    exactly one of them.
    """

    n_nodes: int
    rack_size: int
    racks_per_switch: int = 1

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {self.n_nodes}")
        if not 0 < self.rack_size <= self.n_nodes:
            raise ValueError(
                f"rack_size must be in [1, {self.n_nodes}], "
                f"got {self.rack_size}"
            )
        if self.racks_per_switch <= 0:
            raise ValueError(
                f"racks_per_switch must be positive, "
                f"got {self.racks_per_switch}"
            )

    # -- construction ----------------------------------------------------
    @classmethod
    def flat(cls, n_nodes: int) -> "ClusterTopology":
        """The degenerate topology: one rack, one switch group.

        This is every cluster model's default; ``is_flat`` gates all
        topology-aware behaviour off, so a flat cluster is
        indistinguishable from a pre-topology one.
        """
        return cls(n_nodes=n_nodes, rack_size=n_nodes, racks_per_switch=1)

    # -- shape -----------------------------------------------------------
    @property
    def is_flat(self) -> bool:
        """True when the whole machine is one failure domain."""
        return self.rack_size >= self.n_nodes

    @property
    def n_racks(self) -> int:
        return -(-self.n_nodes // self.rack_size)

    @property
    def n_switches(self) -> int:
        return -(-self.n_racks // self.racks_per_switch)

    # -- membership ------------------------------------------------------
    def rack_nodes(self, rack: int) -> range:
        """Contiguous node indices of rack *rack*."""
        if not 0 <= rack < self.n_racks:
            raise IndexError(f"rack {rack} outside [0, {self.n_racks})")
        lo = rack * self.rack_size
        return range(lo, min(lo + self.rack_size, self.n_nodes))

    def switch_nodes(self, switch: int) -> range:
        """Contiguous node indices behind switch group *switch*."""
        if not 0 <= switch < self.n_switches:
            raise IndexError(
                f"switch {switch} outside [0, {self.n_switches})"
            )
        lo = switch * self.racks_per_switch * self.rack_size
        hi = (switch + 1) * self.racks_per_switch * self.rack_size
        return range(lo, min(hi, self.n_nodes))

    def n_domains(self, level: str = "rack") -> int:
        """Domain count at *level* (``rack`` or ``switch``)."""
        if level == "rack":
            return self.n_racks
        if level == "switch":
            return self.n_switches
        raise ValueError(
            f"unknown domain level {level!r}; choose from {DOMAIN_LEVELS}"
        )

    def domain_nodes(self, level: str, index: int) -> range:
        """Node range of domain *index* at *level*."""
        if level == "rack":
            return self.rack_nodes(index)
        if level == "switch":
            return self.switch_nodes(index)
        raise ValueError(
            f"unknown domain level {level!r}; choose from {DOMAIN_LEVELS}"
        )

    def domain_label(self, level: str, index: int) -> str:
        """Canonical domain name, e.g. ``rack3`` / ``switch1``."""
        if level not in DOMAIN_LEVELS:
            raise ValueError(
                f"unknown domain level {level!r}; choose from {DOMAIN_LEVELS}"
            )
        return f"{level}{index}"

    def validate_for(self, n_nodes: int) -> "ClusterTopology":
        """Assert this topology covers exactly *n_nodes* (the shared
        check every consumer — cluster models, spec builders — applies
        before trusting domain arithmetic). Returns self for chaining.
        """
        if self.n_nodes != n_nodes:
            raise ValueError(
                f"topology covers {self.n_nodes} nodes but the "
                f"cluster has {n_nodes}"
            )
        return self

    # -- identity --------------------------------------------------------
    def signature(self) -> str:
        """Compact identity for store keys: ``flat`` for the default
        topology so pre-topology cells keep their cell key."""
        if self.is_flat:
            return "flat"
        sig = f"rack{self.rack_size}"
        if self.racks_per_switch > 1:
            sig += f"x{self.racks_per_switch}"
        return sig


def topology_signature(topology: "ClusterTopology | None") -> str:
    """Cell-key component for an optional topology (``flat`` if None)."""
    if topology is None:
        return "flat"
    return topology.signature()


__all__ = ["DOMAIN_LEVELS", "ClusterTopology", "topology_signature"]
