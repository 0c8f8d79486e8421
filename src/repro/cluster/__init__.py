"""repro.cluster: what is truly about clusters in the serving stack.

The server itself is one: :class:`~repro.service.server.ServiceServer`
runs ``n_nodes`` memory domains, and a single machine is just the
``n_nodes == 1`` case. This package holds the pieces that only matter
once there are several nodes:

- :mod:`repro.cluster.topology` — nodes with private memory domains and
  tiered interconnect costs (local / NUMA-remote / CXL-style), plus the
  ``planet`` preset of pods and regions.
- :mod:`repro.cluster.routing` — consistent-hash key ownership with
  R-way replication and a router that splits coalesced batches by
  owning node.
- :mod:`repro.cluster.loadgen` — the user-population keys and home-node
  mapping ``kind: cluster`` scenarios serve with.

The planet scenarios are registered with the other built-ins in
:mod:`repro.service.scenarios`.
"""

from repro.cluster.loadgen import CLUSTER_SCHEMA, home_nodes, user_keys
from repro.cluster.routing import ClusterRouter, HashRing
from repro.cluster.topology import (
    FREE_INTERCONNECT,
    INTERCONNECT_TIERS,
    TOPOLOGY_PRESETS,
    ClusterTopology,
    InterconnectCosts,
)

__all__ = [
    "CLUSTER_SCHEMA",
    "FREE_INTERCONNECT",
    "INTERCONNECT_TIERS",
    "TOPOLOGY_PRESETS",
    "ClusterRouter",
    "ClusterTopology",
    "HashRing",
    "InterconnectCosts",
    "home_nodes",
    "user_keys",
]
