"""Topology: placement, tier resolution, and the cost model."""

import pytest

from repro.cluster.topology import (
    FREE_INTERCONNECT,
    INTERCONNECT_TIERS,
    TOPOLOGY_PRESETS,
    ClusterTopology,
    InterconnectCosts,
)
from repro.errors import ConfigurationError


class TestInterconnectCosts:
    def test_tier_costs(self):
        costs = InterconnectCosts(numa_cycles=100, cxl_cycles=300)
        assert costs.for_tier("local") == 0
        assert costs.for_tier("numa") == 100
        assert costs.for_tier("cxl") == 300

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            InterconnectCosts().for_tier("warp")

    def test_negative_costs_rejected(self):
        with pytest.raises(ConfigurationError):
            InterconnectCosts(numa_cycles=-1)

    def test_cxl_cannot_undercut_numa(self):
        with pytest.raises(ConfigurationError):
            InterconnectCosts(numa_cycles=500, cxl_cycles=100)

    def test_free_interconnect_is_all_zero(self):
        for tier in INTERCONNECT_TIERS:
            assert FREE_INTERCONNECT.for_tier(tier) == 0


class TestClusterTopology:
    def test_single_is_one_free_node(self):
        topo = ClusterTopology.single()
        assert topo.n_nodes == 1
        assert topo.tier(0, 0) == "local"
        assert topo.max_cost() == 0

    def test_planet_pods_pair_nodes(self):
        topo = ClusterTopology.planet(8)
        # Pod neighbours are NUMA-remote; across pods is the CXL tier.
        assert topo.tier(0, 0) == "local"
        assert topo.tier(0, 1) == "numa"
        assert topo.tier(0, 2) == "cxl"
        assert topo.tier(6, 7) == "numa"
        assert topo.costs.for_tier(topo.tier(0, 1)) == InterconnectCosts().numa_cycles
        assert topo.costs.for_tier(topo.tier(0, 2)) == InterconnectCosts().cxl_cycles
        assert topo.max_cost() == InterconnectCosts().cxl_cycles

    def test_tier_is_symmetric(self):
        topo = ClusterTopology.planet(6)
        for a in range(6):
            for b in range(6):
                assert topo.tier(a, b) == topo.tier(b, a)

    def test_planet_regions_follow_pods(self):
        topo = ClusterTopology.planet(8)
        assert len(topo.regions) == 4
        for region in topo.regions:
            nodes = topo.nodes_in_region(region)
            assert len(nodes) == 2
            assert topo.tier(*nodes) == "numa"

    def test_node_out_of_range_rejected(self):
        topo = ClusterTopology.planet(2)
        with pytest.raises(ConfigurationError):
            topo.tier(0, 2)

    def test_empty_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterTopology(node_pods=(), node_regions=())

    def test_mismatched_placement_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterTopology(node_pods=(0, 0), node_regions=("us-east",))

    def test_as_dict_round_trips_placement(self):
        topo = ClusterTopology.planet(4)
        doc = topo.as_dict()
        assert doc["n_nodes"] == 4
        assert doc["node_pods"] == [0, 0, 1, 1]
        assert len(doc["node_regions"]) == 4
        assert doc["numa_cycles"] == InterconnectCosts().numa_cycles
        assert doc["cxl_cycles"] == InterconnectCosts().cxl_cycles


class TestPresets:
    def test_single_preset_scales_with_free_costs(self):
        topo = TOPOLOGY_PRESETS["single"](4)
        assert topo.n_nodes == 4
        assert topo.max_cost() == 0

    def test_single_preset_degenerates(self):
        assert TOPOLOGY_PRESETS["single"](1) == ClusterTopology.single()

    def test_planet_preset_charges(self):
        topo = TOPOLOGY_PRESETS["planet"](4)
        assert topo.n_nodes == 4
        assert topo.max_cost() > 0
