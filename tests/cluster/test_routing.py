"""Routing: replica-set invariants and minimal movement on crash."""

import random

import pytest

from repro.cluster.routing import ClusterRouter, HashRing
from repro.errors import ConfigurationError

KEYS = list(range(0, 4000, 13))


class TestHashRing:
    def test_same_parameters_same_placement(self):
        a = HashRing(5)
        b = HashRing(5)
        for key in KEYS[:200]:
            assert a.preference(key) == b.preference(key)

    def test_preference_is_a_permutation_of_nodes(self):
        ring = HashRing(6)
        for key in KEYS[:200]:
            assert sorted(ring.preference(key)) == list(range(6))

    def test_every_key_routes_to_exactly_r_distinct_live_nodes(self):
        ring = HashRing(6)
        rng = random.Random(7)
        for r in (1, 2, 3):
            for key in KEYS[:100]:
                alive = rng.sample(range(6), rng.randint(r, 6))
                replicas = ring.replicas(key, r, alive=alive)
                assert len(replicas) == r
                assert len(set(replicas)) == r
                assert all(node in alive for node in replicas)

    def test_dead_holders_pad_when_too_few_live(self):
        ring = HashRing(4)
        replicas = ring.replicas(KEYS[0], 3, alive=[0])
        assert len(set(replicas)) == 3
        assert replicas[0] == 0

    def test_crash_moves_only_the_crashed_nodes_keys(self):
        ring = HashRing(5)
        r = 2
        crashed = 2
        alive = [n for n in range(5) if n != crashed]
        moved = 0
        for key in KEYS:
            before = ring.replicas(key, r)
            after = ring.replicas(key, r, alive=alive)
            if crashed not in before:
                # Keys the crashed node never held do not move at all.
                assert after == before
            else:
                moved += 1
                # Survivors keep their copy, in the same preference
                # order; the lost copy goes to the next live node the
                # key's preference list already named.
                survivors = [n for n in before if n != crashed]
                assert [n for n in after if n in survivors] == survivors
                prefs = ring.preference(key)
                replacement = [n for n in after if n not in survivors]
                assert replacement == [
                    n for n in prefs if n in alive and n not in survivors
                ][:1]
        assert moved > 0  # the property was actually exercised

    def test_ring_validation(self):
        with pytest.raises(ConfigurationError):
            HashRing(0)
        with pytest.raises(ConfigurationError):
            HashRing(2, n_vnodes=0)
        with pytest.raises(ConfigurationError):
            HashRing(2).replicas(1, 3)


class TestClusterRouter:
    def test_split_partitions_every_position(self):
        router = ClusterRouter(HashRing(4), replication=2)
        keys = KEYS[:97]
        groups = router.split(keys)
        positions = sorted(p for group in groups.values() for p in group)
        assert positions == list(range(len(keys)))
        assert list(groups) == sorted(groups)
        for node, group in groups.items():
            for position in group:
                assert router.primary(keys[position]) == node

    def test_primary_is_the_first_replica_under_any_live_set(self):
        router = ClusterRouter(HashRing(5), replication=2)
        rng = random.Random(3)
        for key in KEYS[:100]:
            alive = rng.sample(range(5), rng.randint(0, 5))
            for live in (alive, frozenset(alive), None):
                assert router.primary(key, alive=live) == router.replicas(
                    key, alive=live
                )[0]

    def test_split_respects_liveness(self):
        router = ClusterRouter(HashRing(4), replication=2)
        keys = KEYS[:50]
        groups = router.split(keys, alive=[1, 3])
        assert set(groups) <= {1, 3}

    def test_replication_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterRouter(HashRing(3), replication=4)
        with pytest.raises(ConfigurationError):
            ClusterRouter(HashRing(3), replication=0)

    def test_replica_sets_are_stable_across_instances(self):
        a = ClusterRouter(HashRing(5), replication=3)
        b = ClusterRouter(HashRing(5), replication=3)
        for key in KEYS[:100]:
            assert a.replicas(key) == b.replicas(key)
