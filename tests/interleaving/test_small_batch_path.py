"""The scalar small-batch path matches the numpy path exactly.

Below :data:`~repro.interleaving.compiled.SCALAR_ADDRESS_LIMIT` probe
addresses (keys x depth), staged replay walks the probe recurrence and
splits addresses into lines and pages in plain Python. Both paths must
give the same addresses, the same search results and the same engine
state, here checked one address below, at, and one above the limit.
"""

import json

import numpy as np
import pytest

from repro.config import HASWELL
from repro.indexes.sorted_array import int_array_of_bytes
from repro.interleaving import BulkLookup, get_executor
from repro.interleaving import compiled
from repro.interleaving.compiled import SCALAR_ADDRESS_LIMIT, search_depth
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import ExecutionEngine

#: Always numpy / always scalar, whatever the address count.
NUMPY, SCALAR = 0, 1 << 62


def identity_table(depth):
    """An identity int array whose search runs exactly ``depth`` steps."""
    table = int_array_of_bytes(AddressSpaceAllocator(), "t", (1 << depth) * 8, 8)
    assert search_depth(table.size) == depth
    return table


def keys_for(addresses):
    """(depth, n_keys) with ``depth * n_keys == addresses``, depth >= 6."""
    for depth in range(19, 5, -1):
        if addresses % depth == 0:
            return depth, addresses // depth
    raise AssertionError(addresses)


BOUNDARY = [SCALAR_ADDRESS_LIMIT - 1, SCALAR_ADDRESS_LIMIT, SCALAR_ADDRESS_LIMIT + 1]


def draw_values(table, n):
    rng = np.random.RandomState(n)
    values = [int(v) for v in rng.randint(0, table.size, n - 2)]
    # One miss below the domain, one numpy integer.
    return values + [-3, np.int64(table.size - 1)]


@pytest.mark.parametrize("addresses", BOUNDARY)
def test_probe_addresses_agree(monkeypatch, addresses):
    depth, n = keys_for(addresses)
    table = identity_table(depth)
    values = draw_values(table, n)
    out = {}
    for name, limit in (("numpy", NUMPY), ("scalar", SCALAR)):
        monkeypatch.setattr(compiled, "SCALAR_ADDRESS_LIMIT", limit)
        out[name] = compiled._probe_addresses(table, values, depth)
    assert len(out["numpy"][0]) == addresses
    assert out["scalar"] == out["numpy"]
    assert all(type(v) is int for v in out["scalar"][0] + out["scalar"][1])


def run_state(table, values, technique):
    engine = ExecutionEngine(HASWELL)
    executor = get_executor(technique)
    tasks = BulkLookup.sorted_array(table, values)
    first = executor.run(tasks, engine, group_size=6)
    # A second batch on the warm engine (fills still in flight).
    second = executor.run(tasks, engine, group_size=6)
    return (
        first,
        second,
        engine.clock,
        engine.snapshot(),
        json.dumps(engine.metrics.snapshot(), sort_keys=True),
    )


@pytest.mark.parametrize("technique", ["sequential", "GP", "AMAC", "CORO"])
@pytest.mark.parametrize("addresses", BOUNDARY)
def test_replay_agrees(monkeypatch, addresses, technique):
    depth, n = keys_for(addresses)
    table = identity_table(depth)
    values = draw_values(table, n)
    states = {}
    for name, limit in (("numpy", NUMPY), ("scalar", SCALAR)):
        monkeypatch.setattr(compiled, "SCALAR_ADDRESS_LIMIT", limit)
        states[name] = run_state(table, values, technique)
    assert states["scalar"] == states["numpy"]
    assert states["numpy"][0] == [max(0, min(int(v), table.size - 1)) for v in values]
