"""Cluster topology: nodes, regions, and the tiered interconnect model.

A simulated cluster is N nodes, each owning a private memory domain (one
:class:`~repro.sim.multicore.MultiCoreSystem` per node — its own DRAM,
its own shared LLC). Nodes group into *pods* (a rack / NUMA island) and
pods into *regions* (a datacenter); the interconnect charges a tiered
cycle cost whenever an answer crosses domains:

========  =====================================  ================
tier      when                                   default cycles
========  =====================================  ================
local     same node                              0
numa      different node, same pod               240
cxl       different pod                          720
========  =====================================  ================

The asymmetry follows the PCC/CXL index-design guideline numbers
(PAPERS.md): NUMA-remote accesses land a few hundred cycles over local
DRAM, and CXL-attached tiers run roughly 2-3x NUMA-remote. Costs are
charged *once per request per crossing* — on the answer's return to the
request's home node — not per cache miss: the simulated engines already
price misses inside a domain, and the cluster layer prices the domain
boundary.

Everything here is a frozen dataclass: a topology is part of a
scenario's identity, so two runs with the same seed and topology are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = [
    "INTERCONNECT_TIERS",
    "TOPOLOGY_PRESETS",
    "FREE_INTERCONNECT",
    "InterconnectCosts",
    "ClusterTopology",
]

#: Interconnect tiers, nearest first (documentation and metrics order).
INTERCONNECT_TIERS = ("local", "numa", "cxl")

#: Region names cycled over when building preset topologies.
_REGION_WHEEL = (
    "us-east",
    "eu-west",
    "ap-south",
    "us-west",
    "eu-north",
    "ap-east",
    "sa-east",
    "af-south",
)


@dataclass(frozen=True)
class InterconnectCosts:
    """Cycle cost of one answer crossing each interconnect tier."""

    numa_cycles: int = 240
    cxl_cycles: int = 720

    def __post_init__(self) -> None:
        if self.numa_cycles < 0 or self.cxl_cycles < 0:
            raise ConfigurationError("interconnect costs cannot be negative")
        if 0 < self.cxl_cycles < self.numa_cycles:
            raise ConfigurationError(
                "the CXL tier cannot be cheaper than the NUMA tier"
            )

    def for_tier(self, tier: str) -> int:
        if tier == "local":
            return 0
        if tier == "numa":
            return self.numa_cycles
        if tier == "cxl":
            return self.cxl_cycles
        raise ConfigurationError(f"unknown interconnect tier {tier!r}")


#: The zero-cost interconnect: every crossing is free, which is what
#: makes a 1-node cluster bit-identical to the plain service layer.
FREE_INTERCONNECT = InterconnectCosts(numa_cycles=0, cxl_cycles=0)


@dataclass(frozen=True)
class ClusterTopology:
    """Placement of every node: which pod, which region, what costs.

    ``node_pods[i]`` and ``node_regions[i]`` place node ``i``. Two nodes
    in the same pod are NUMA-remote neighbours; different pods talk over
    the CXL-style tier. Regions are coarser labels used by the planet
    scenarios to map arrival regions onto home nodes — the cost model
    only reads pods.
    """

    node_pods: tuple[int, ...]
    node_regions: tuple[str, ...]
    costs: InterconnectCosts = field(default_factory=InterconnectCosts)

    def __post_init__(self) -> None:
        if not self.node_pods:
            raise ConfigurationError("a topology needs at least one node")
        if len(self.node_pods) != len(self.node_regions):
            raise ConfigurationError(
                "node_pods and node_regions must name the same nodes"
            )

    @property
    def n_nodes(self) -> int:
        return len(self.node_pods)

    @property
    def regions(self) -> tuple[str, ...]:
        """Distinct regions, in first-appearance order."""
        seen: list[str] = []
        for region in self.node_regions:
            if region not in seen:
                seen.append(region)
        return tuple(seen)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ConfigurationError(
                f"node {node} outside topology of {self.n_nodes} nodes"
            )

    def tier(self, a: int, b: int) -> str:
        """Interconnect tier between nodes ``a`` and ``b``."""
        self._check_node(a)
        self._check_node(b)
        if a == b:
            return "local"
        if self.node_pods[a] == self.node_pods[b]:
            return "numa"
        return "cxl"

    def max_cost(self) -> int:
        """The worst single crossing this topology can charge."""
        if self.n_nodes == 1:
            return 0
        pods = set(self.node_pods)
        if len(pods) > 1:
            return self.costs.cxl_cycles
        return self.costs.numa_cycles

    def nodes_in_region(self, region: str) -> tuple[int, ...]:
        """Nodes a region's traffic calls home (first-appearance order)."""
        return tuple(
            node
            for node, name in enumerate(self.node_regions)
            if name == region
        )

    def as_dict(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "node_pods": list(self.node_pods),
            "node_regions": list(self.node_regions),
            "numa_cycles": self.costs.numa_cycles,
            "cxl_cycles": self.costs.cxl_cycles,
        }

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------

    @classmethod
    def single(cls) -> "ClusterTopology":
        """One node, zero-cost interconnect: the degenerate cluster."""
        return cls(
            node_pods=(0,),
            node_regions=(_REGION_WHEEL[0],),
            costs=FREE_INTERCONNECT,
        )

    @classmethod
    def planet(
        cls, n_nodes: int, *, costs: InterconnectCosts | None = None
    ) -> "ClusterTopology":
        """A planet-spanning layout: two nodes per pod, one pod per region.

        Node ``i`` sits in pod ``i // 2`` and region
        ``_REGION_WHEEL[(i // 2) % 8]`` — so a node's pod neighbour is
        NUMA-remote and everything farther is a CXL-tier hop, matching
        the cost asymmetry the PCC/CXL guidelines report.
        """
        if n_nodes < 1:
            raise ConfigurationError("a planet needs at least one node")
        pods = tuple(i // 2 for i in range(n_nodes))
        regions = tuple(
            _REGION_WHEEL[(i // 2) % len(_REGION_WHEEL)] for i in range(n_nodes)
        )
        return cls(
            node_pods=pods,
            node_regions=regions,
            costs=costs if costs is not None else InterconnectCosts(),
        )


#: Named topology presets (scenario plumbing).
TOPOLOGY_PRESETS = {
    "single": lambda n_nodes: (
        ClusterTopology.single()
        if n_nodes == 1
        else ClusterTopology.planet(n_nodes, costs=FREE_INTERCONNECT)
    ),
    "planet": ClusterTopology.planet,
}
