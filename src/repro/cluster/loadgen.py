"""Cluster load generation helpers: user keys and home nodes.

The serving sweep (:mod:`repro.service.loadgen`) runs every scenario
kind; for ``kind: cluster`` scenarios it draws each probe key from a
*user population* (``n_users`` simulated users, each owning a stable
key — blake2b-mixed so the population spreads over the table and over
the hash ring deterministically) and maps arrival regions onto home
nodes with the helpers here.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "CLUSTER_SCHEMA",
    "user_keys",
    "home_nodes",
]

#: Schema tag of cluster data documents / BENCH_cluster.json.
CLUSTER_SCHEMA = "repro.cluster/1"


def user_keys(scenario, table_size: int, seed: int) -> list[int]:
    """One probe key per request, drawn through the user population.

    Each arrival is a uniformly-drawn user out of ``n_users``; each
    user's key is a blake2b mix of their id — stable across runs and
    processes (never the salted built-in ``hash``), so the same user
    always lands on the same table slot and the same ring node.
    """
    rng = np.random.RandomState(seed + 11)
    users = rng.randint(0, scenario.n_users, scenario.n_requests)
    keys = []
    for user in users:
        digest = hashlib.blake2b(
            f"user{int(user)}".encode("utf-8"), digest_size=8
        ).digest()
        keys.append(int.from_bytes(digest, "big") % table_size)
    return keys


def home_nodes(scenario, topology, arrivals) -> list[int]:
    """The home node of each request, from the arrival region stream.

    Diurnal arrivals carry a region per arrival; arrival regions map
    onto the topology's distinct regions by index (mod), and within a
    region's node group requests round-robin by arrival order. Arrival
    kinds without geography round-robin over every node — interconnect
    cost then measures pure placement luck.
    """
    node_groups = [
        topology.nodes_in_region(region) for region in topology.regions
    ]
    arrival_regions = getattr(arrivals, "regions", None)
    homes = []
    for index in range(scenario.n_requests):
        if arrival_regions is not None:
            group = node_groups[arrival_regions[index] % len(node_groups)]
        else:
            group = range(topology.n_nodes)
        homes.append(group[index % len(group)])
    return homes
