"""Tests for the fault injector's window queries and point cursor."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    CacheFlush,
    FaultInjector,
    FaultSchedule,
    LatencySpike,
    LfbShrink,
    ShardCrash,
    ShardStall,
)


class _FakeLfbs:
    def __init__(self, capacity=10):
        self.capacity = capacity

    def set_capacity(self, capacity):
        self.capacity = capacity


class _FakeMemory:
    """The slice of MemorySystem the injector touches."""

    def __init__(self):
        self.extra_dram_latency = 0
        self.lfbs = _FakeLfbs()
        self.private_flushes = 0

    def flush_private(self):
        self.private_flushes += 1


class _FakeL3:
    def __init__(self):
        self.flushes = 0

    def flush(self):
        self.flushes += 1


def make_injector(events, n_shards=2, shared_l3=None):
    schedule = FaultSchedule(events=tuple(events))
    memories = [_FakeMemory() for _ in range(n_shards)]
    node_l3s = [shared_l3] if shared_l3 is not None else []
    return FaultInjector(schedule, memories, node_l3s=node_l3s), memories


class TestAvailability:
    def test_shard_unavailable_during_stall(self):
        injector, _ = make_injector([ShardStall(at=100, shard=0, duration=50)])
        assert injector.available_from(0, 120) == 150
        assert injector.available_from(0, 99) == 99
        assert injector.available_from(0, 150) == 150
        assert injector.available_from(1, 120) == 120  # other shard untouched

    def test_chained_outages_compose(self):
        injector, _ = make_injector(
            [
                ShardStall(at=100, shard=0, duration=50),
                ShardCrash(at=140, shard=0, duration=60),
            ]
        )
        # Entering the first window rides through the overlapping second.
        assert injector.available_from(0, 110) == 200

    def test_all_shards_down_needs_every_shard(self):
        injector, _ = make_injector(
            [
                ShardStall(at=100, shard=0, duration=50),
                ShardStall(at=100, shard=1, duration=20),
            ]
        )
        assert injector.all_shards_down_at(110)
        assert not injector.all_shards_down_at(130)  # shard 1 is back


class TestEnvironment:
    def test_spikes_sum_and_shrinks_take_the_minimum(self):
        injector, _ = make_injector(
            [
                LatencySpike(at=0, duration=100, extra_latency=200),
                LatencySpike(at=50, duration=100, extra_latency=100),
                LfbShrink(at=0, duration=100, capacity=6),
                LfbShrink(at=20, duration=40, capacity=4),
            ]
        )
        assert injector.extra_latency_at(0, 60) == 300
        assert injector.extra_latency_at(0, 120) == 100
        assert injector.lfb_capacity_at(0, 30) == 4
        assert injector.lfb_capacity_at(0, 70) == 6
        assert injector.lfb_capacity_at(0, 150) is None

    def test_environment_is_falsy_when_clean(self):
        injector, _ = make_injector([LatencySpike(at=50, duration=10, extra_latency=9)])
        assert not injector.environment(0, 0)
        assert injector.environment(0, 55)

    def test_applied_mutates_then_restores(self):
        injector, memories = make_injector(
            [
                LatencySpike(at=0, duration=100, extra_latency=250),
                LfbShrink(at=0, duration=100, capacity=5),
            ]
        )
        memory = memories[0]
        with injector.applied(0, 10) as env:
            assert memory.extra_dram_latency == 250
            assert memory.lfbs.capacity == 5
            assert env.extra_latency == 250
        assert memory.extra_dram_latency == 0
        assert memory.lfbs.capacity == 10

    def test_shrink_never_grows_the_pool(self):
        injector, memories = make_injector(
            [LfbShrink(at=0, duration=100, capacity=64)]
        )
        with injector.applied(0, 10):
            assert memories[0].lfbs.capacity == 10  # min(base, fault)


class TestCrashQueries:
    def test_crash_strictly_inside_the_window(self):
        crash = ShardCrash(at=100, shard=0, duration=40)
        injector, _ = make_injector([crash])
        assert injector.crash_between(0, 50, 150) is crash
        assert injector.crash_between(0, 100, 150) is None  # at start: consumed
        assert injector.crash_between(0, 10, 100) is None  # at end: missed
        assert injector.crash_between(1, 50, 150) is None  # other shard

    def test_stalls_do_not_kill_batches(self):
        injector, _ = make_injector([ShardStall(at=100, shard=0, duration=40)])
        assert injector.crash_between(0, 50, 150) is None


class TestPointCursor:
    def test_flushes_apply_once_in_order(self):
        l3 = _FakeL3()
        injector, memories = make_injector(
            [
                CacheFlush(at=100, shard=0),
                CacheFlush(at=200, llc=True),
            ],
            shared_l3=l3,
        )
        assert injector.next_pending_at() == 100
        applied = injector.apply_pending(150)
        assert [e.at for e in applied] == [100]
        assert memories[0].private_flushes == 1
        assert memories[1].private_flushes == 0
        assert injector.next_pending_at() == 200
        injector.apply_pending(10_000)
        # The second flush targeted every shard and the shared LLC.
        assert memories[0].private_flushes == 2
        assert memories[1].private_flushes == 1
        assert l3.flushes == 1
        assert injector.next_pending_at() is None
        assert injector.flushes_applied == 2
        assert injector.apply_pending(20_000) == []

    def test_window_events_never_enter_the_cursor(self):
        injector, _ = make_injector([ShardStall(at=5, shard=0, duration=10)])
        assert injector.next_pending_at() is None


def test_injector_needs_shards():
    with pytest.raises(ConfigurationError, match="shard"):
        FaultInjector(FaultSchedule(events=()), [])
