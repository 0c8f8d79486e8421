"""Dropped engines are freed by reference counting, not the cyclic GC.

A cold engine holds a full memory system (the L3 set dicts alone are
about 1.5 MB on Haswell). Callers build one per batch, per staging
validation and per calibration, so an engine that only a gen-2 garbage
collection can reclaim inflates peak memory. These tests disable the
cyclic collector and check that nothing the engine owns points back at
it or at its memory system.
"""

import gc
import weakref

import pytest

from repro import api
from repro.config import HASWELL
from repro.indexes.sorted_array import int_array_of_bytes
from repro.interleaving import BulkLookup, generator_oracle, get_executor
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import ExecutionEngine


@pytest.fixture
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(scope="module")
def tasks():
    table = int_array_of_bytes(AddressSpaceAllocator(), "lifetime", 1 << 20)
    return BulkLookup.sorted_array(table, list(range(3, table.size, 4_099)))


@pytest.mark.parametrize(
    "executor",
    [get_executor("CORO"), generator_oracle("CORO"), generator_oracle("GP")],
    ids=["staged-replay", "coro-generators", "gp-generators"],
)
def test_dropped_engine_is_freed_without_gc(no_cyclic_gc, tasks, executor):
    engine = ExecutionEngine(HASWELL)
    executor.run(tasks, engine, group_size=5)
    engine.metrics.snapshot()
    engine_ref = weakref.ref(engine)
    memory_ref = weakref.ref(engine.memory)
    del engine
    assert engine_ref() is None
    assert memory_ref() is None


def test_lookup_batch_engine_is_freed_without_gc(no_cyclic_gc, tasks):
    engine = ExecutionEngine(HASWELL)
    api.lookup_batch(tasks.target, tasks.inputs[:20], technique="AMAC", engine=engine)
    engine_ref = weakref.ref(engine)
    del engine
    assert engine_ref() is None


def test_metrics_registry_outliving_its_engine_drops_the_engine_source():
    engine = ExecutionEngine(HASWELL)
    engine.compute(8, 8)
    metrics = engine.metrics
    assert metrics.snapshot()["engine"]["cycles"] == 8
    del engine
    snapshot = metrics.snapshot()
    assert "engine" not in snapshot
    assert snapshot["tmam"]["cycles"] == 8
