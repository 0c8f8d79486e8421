"""Multi-node serving: one-node identity, node-fault lowering, accounting."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology
from repro.config import scaled
from repro.errors import ConfigurationError
from repro.faults.events import NodeCrash, NodeSlow, ShardCrash
from repro.faults.schedule import FaultSchedule, resolve_schedule
from repro.service.arrivals import make_arrivals
from repro.service.server import ServiceConfig, ServiceServer
from repro.sim.allocator import AddressSpaceAllocator
from repro.workloads.generators import make_table

ARCH = scaled(64)

RESILIENT = dict(
    max_batch=16,
    max_wait_cycles=2500,
    queue_capacity=48,
    overload_policy="reject",
    n_shards=2,
    warmup_requests=16,
    slo_cycles=25_000,
    max_retries=2,
    retry_backoff_cycles=1500,
    hedge_after_cycles=9000,
    degradation="adaptive",
    overflow_fallback=True,
    technique="CORO",
)


def _serve(config, *, faults=None, n=120, seed=5, topology=None, homes=None):
    allocator = AddressSpaceAllocator(page_size=ARCH.page_size)
    table = make_table(allocator, "serve/dict", 1 << 20)
    rng = np.random.RandomState(seed + 11)
    values = [int(v) for v in rng.randint(0, table.size, n)]
    arrivals = make_arrivals("poisson", n, seed, rate_per_kcycle=2.0)
    server = ServiceServer(
        table, config, arch=ARCH, seed=seed, faults=faults, topology=topology
    )
    return server.serve(arrivals, values, homes=homes)


def _schedule(faults, seed=5):
    return resolve_schedule(faults, horizon=300_000, n_shards=2, seed=seed)


class TestDegenerateIdentity:
    """The interconnect path at one node == the plain one-node server."""

    @pytest.mark.parametrize("faults", [None, "chaos-quick"])
    def test_bit_identical_to_service_server(self, faults):
        config = ServiceConfig(**RESILIENT)
        base = _serve(config, faults=_schedule(faults))
        cluster = _serve(
            config,
            faults=_schedule(faults),
            topology=ClusterTopology.single(),
            homes=[0] * 120,
        )
        assert cluster.latencies == base.latencies
        assert cluster.counters == base.counters
        assert cluster.resilience == base.resilience
        assert cluster.exemplars.as_dict() == base.exemplars.as_dict()
        assert cluster.crossings() == base.crossings()
        for mine, theirs in zip(cluster.requests, base.requests):
            assert dataclasses.astuple(mine) == dataclasses.astuple(theirs)

    def test_degenerate_report_has_empty_cluster_accounting(self):
        report = _serve(ServiceConfig(**RESILIENT))
        assert report.interconnect_cycles == 0
        assert report.cross_node_hedges == 0
        assert report.crossings()["local"] == report.completed
        assert set(report.node_batches()) == {"node0", "overflow"}


class TestNodeFaultLowering:
    def _server(self, schedule):
        allocator = AddressSpaceAllocator(page_size=ARCH.page_size)
        table = make_table(allocator, "serve/dict", 1 << 20)
        return ServiceServer(
            table,
            ServiceConfig(**RESILIENT, n_nodes=2, replication=2),
            arch=ARCH,
            seed=0,
            faults=schedule,
        )

    def test_node_crash_downs_every_shard_of_that_node_only(self):
        schedule = FaultSchedule(
            events=(NodeCrash(at=1000, node=1, duration=500),)
        )
        server = self._server(schedule)
        injector = server._injector
        # Node 1 hosts global shards 2 and 3; both sit out the window.
        for shard in (2, 3):
            assert injector.available_from(shard, 1000) == 1500
        for shard in (0, 1):
            assert injector.available_from(shard, 1000) == 1000
        kinds = {e.kind for e in injector.schedule.events}
        assert kinds == {"shard_crash"}

    def test_node_slow_brownouts_every_shard_of_that_node(self):
        schedule = FaultSchedule(
            events=(NodeSlow(at=1000, node=0, duration=800, extra_latency=200),)
        )
        server = self._server(schedule)
        injector = server._injector
        for shard in (0, 1):
            assert injector.extra_latency_at(shard, 1200) == 200
        for shard in (2, 3):
            assert injector.extra_latency_at(shard, 1200) == 0

    def test_nodeless_event_hits_the_whole_fleet(self):
        schedule = FaultSchedule(events=(NodeCrash(at=1000, duration=500),))
        server = self._server(schedule)
        for shard in range(4):
            assert server._injector.available_from(shard, 1000) == 1500

    def test_shard_events_pass_through_unchanged(self):
        schedule = FaultSchedule(
            events=(ShardCrash(at=1000, shard=0, duration=500),)
        )
        server = self._server(schedule)
        # No node events -> the very same schedule object, so the
        # retry-jitter stream cannot drift.
        assert server._injector.schedule is schedule

    def test_empty_schedule_is_bit_identical_to_no_faults(self):
        config = ServiceConfig(**RESILIENT, n_nodes=2, replication=2)
        plain = _serve(config, faults=None)
        empty = _serve(config, faults=FaultSchedule(events=()))
        assert plain.latencies == empty.latencies
        assert plain.counters == empty.counters
        assert plain.resilience == empty.resilience


class TestClusterAccounting:
    def test_node_counters_cover_fleet_and_sum_to_totals(self):
        config = ServiceConfig(**RESILIENT, n_nodes=3, replication=2)
        report = _serve(config)
        batches = report.node_batches()
        completed = report.node_completed()
        assert set(batches) == {"node0", "node1", "node2", "overflow"}
        assert sum(batches.values()) == report.counters["batches"]
        assert sum(completed.values()) == report.completed

    def test_homes_drive_interconnect_charges(self):
        config = ServiceConfig(**RESILIENT, n_nodes=4, replication=2)
        topology = ClusterTopology.planet(4)
        allocator = AddressSpaceAllocator(page_size=ARCH.page_size)
        table = make_table(allocator, "serve/dict", 1 << 20)
        rng = np.random.RandomState(16)
        values = [int(v) for v in rng.randint(0, table.size, 120)]
        arrivals = make_arrivals("poisson", 120, 5, rate_per_kcycle=2.0)
        server = ServiceServer(
            table, config, arch=ARCH, seed=5, topology=topology
        )
        homes = [i % 4 for i in range(120)]
        report = server.serve(arrivals, values, homes=homes)
        crossings = report.crossings()
        assert sum(crossings.values()) == report.completed
        assert crossings["numa"] + crossings["cxl"] > 0
        assert report.interconnect_cycles > 0

    def test_replica_hedging_crosses_nodes(self):
        # Chaos + queueing on a replicated fleet must eventually hedge
        # onto a replica node (the cross-node path the PR adds).
        config = ServiceConfig(
            **{**RESILIENT, "hedge_after_cycles": 2000},
            n_nodes=4,
            replication=2,
        )
        report = _serve(
            config,
            faults=resolve_schedule(
                "cluster-chaos", horizon=300_000, n_shards=4, seed=5
            ),
            n=160,
        )
        assert report.cross_node_hedges > 0
        assert report.resilience["hedges"] >= report.cross_node_hedges


class TestClusterConfigValidation:
    def test_replication_must_fit_the_fleet(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(n_nodes=2, replication=3)
        with pytest.raises(ConfigurationError):
            ServiceConfig(n_nodes=0)

    def test_topology_must_match_the_config(self):
        allocator = AddressSpaceAllocator(page_size=ARCH.page_size)
        table = make_table(allocator, "serve/dict", 1 << 20)
        with pytest.raises(ConfigurationError):
            ServiceServer(
                table,
                ServiceConfig(**RESILIENT, n_nodes=2, replication=2),
                arch=ARCH,
                topology=ClusterTopology.planet(4),
            )
