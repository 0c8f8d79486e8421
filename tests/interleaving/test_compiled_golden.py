"""Golden equivalence for the staged-replay engine path.

Every schedulable registry executor (``Baseline``, ``GP``, ``AMAC``,
``CORO``, ``sequential``) replays a staged schedule
(:mod:`repro.interleaving.compiled`) instead of driving Python
generators whenever the shape compiles. Its whole correctness contract
is *bit identity* with the generator schedulers, reached through
:func:`~repro.interleaving.generator_oracle`: at the pinned 16 MB golden
points replay must reproduce the cycle count, search results, and
metrics tree exactly — same numbers as
``tests/analysis/test_golden_numbers.py``, reached without a single
generator resume. If a change legitimately alters the cost model,
recapture the golden numbers in the same commit and say why.

The second half pins the *fallback* contract: workload shapes the
stager cannot flatten (CSB+-tree descents, skip-list streams,
line-straddling array layouts) and tracer-enabled engines must take the
generator path with the reason counted, and the counters must surface
as ``compiled_fallbacks`` through a
:class:`~repro.obs.metrics.MetricsRegistry` source. Report labels are
the technique names on both paths, :func:`repro.api.lookup_batch`
included.
"""

import pytest

from repro import api
from repro.analysis.experiments import measure_binary_search
from repro.config import HASWELL
from repro.indexes.csb_tree import CSBTree
from repro.indexes.skip_list import SkipList, skip_lookup_stream
from repro.indexes.sorted_array import int_array_of_bytes
from repro.interleaving import (
    BulkLookup,
    compiled_metrics_source,
    compiled_stats,
    generator_oracle,
    get_executor,
    register_compiled_metrics,
    reset_compiled_stats,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NullRecorder, SpanRecorder
from repro.sim import ExecutionEngine
from repro.sim.allocator import AddressSpaceAllocator

#: The pinned golden numbers (identical to test_golden_numbers.py) for
#: every paper technique with a staged schedule. ``std`` has none.
GOLDEN_CYCLES_PER_SEARCH = {
    "Baseline": 978.515625,
    "GP": 767.609375,
    "AMAC": 1236.5625,
    "CORO": 1214.71875,
}

#: Registry keys of every executor with a staged schedule.
SCHEDULED = ("amac", "baseline", "coro", "gp", "sequential")

SIZE_BYTES = 16 << 20
N_LOOKUPS = 64


def small_array(nbytes=1 << 20, element_size=4):
    return int_array_of_bytes(
        AddressSpaceAllocator(), "arr", nbytes, element_size=element_size
    )


def run_both(name, tasks, group_size, **kwargs):
    """(registry results, registry engine, oracle results, oracle engine)."""
    oracle_engine = ExecutionEngine(HASWELL)
    expected = generator_oracle(name).run(
        tasks, oracle_engine, group_size=group_size, **kwargs
    )
    engine = ExecutionEngine(HASWELL)
    reset_compiled_stats()
    got = get_executor(name).run(tasks, engine, group_size=group_size, **kwargs)
    return got, engine, expected, oracle_engine


class TestCompiledGoldenNumbers:
    """Staged replay reproduces the pinned harness numbers exactly."""

    @pytest.mark.parametrize("technique", sorted(GOLDEN_CYCLES_PER_SEARCH))
    def test_compiled_cycles_per_search_bit_identical(self, technique):
        reset_compiled_stats()
        point = measure_binary_search(SIZE_BYTES, technique, n_lookups=N_LOOKUPS)
        assert point.cycles_per_search == GOLDEN_CYCLES_PER_SEARCH[technique]
        assert point.technique == technique
        stats = compiled_stats()
        assert stats["fallbacks"] == 0, stats["fallbacks_by_reason"]
        assert stats["replays"] >= 1  # the number came from staged replay


class TestCompiledTwinEquivalence:
    """Registry executor vs generator oracle: results, clock, metrics."""

    @pytest.mark.parametrize("generator_name", SCHEDULED)
    def test_results_clock_and_metrics_identical(self, generator_name):
        array = small_array()
        probes = [int(array.size * i // 37) * 7 + 3 for i in range(40)]
        tasks = BulkLookup.sorted_array(array, probes)
        # A (disabled) null recorder must not trip the tracer fallback.
        got, engine, expected, oracle_engine = run_both(
            generator_name, tasks, 4, recorder=NullRecorder()
        )
        stats = compiled_stats()
        assert stats["replays"] == 1 and stats["fallbacks"] == 0
        assert got == expected
        assert engine.clock == oracle_engine.clock
        assert engine.metrics.snapshot() == oracle_engine.metrics.snapshot()
        oracle = generator_oracle(generator_name)
        assert oracle.name == get_executor(generator_name).name
        assert oracle.schedule is None

    def test_alias_resolves_to_same_twin(self):
        assert get_executor("interleaved") is get_executor("CORO")
        assert generator_oracle("interleaved").name == "CORO"

    @pytest.mark.parametrize("technique", ("sequential", *GOLDEN_CYCLES_PER_SEARCH))
    def test_lookup_batch_labels_and_replays(self, technique):
        array = small_array()
        values = [int(array.size * i // 29) * 5 + 1 for i in range(30)]
        reset_compiled_stats()
        result = api.lookup_batch(array, values, technique=technique)
        stats = compiled_stats()
        assert result.technique == technique
        assert stats["replays"] == 1 and stats["fallbacks"] == 0
        engine = ExecutionEngine(HASWELL)
        expected = generator_oracle(technique).run(
            BulkLookup.sorted_array(array, values),
            engine,
            group_size=result.group_size,
        )
        engine.settle()
        assert list(result.results) == expected
        assert result.cycles == engine.clock


class TestCompiledFallbacks:
    """Non-compilable shapes take the generator path, counted."""

    def _csb_tasks(self):
        keys = list(range(0, 2_000, 2))
        tree = CSBTree(AddressSpaceAllocator(), "t", keys, [k * 3 for k in keys])
        return BulkLookup.csb_tree(tree, [0, 6, 40, 1998, 777])

    def test_csb_tree_falls_back_to_generator_path(self):
        got, _, expected, _ = run_both("CORO", self._csb_tasks(), 4)
        assert got == expected
        stats = compiled_stats()
        assert stats["replays"] == 0
        assert stats["fallbacks_by_reason"] == {"workload_kind": 1}
        assert stats["fallbacks_by_executor"] == {"CORO": 1}

    def test_skip_list_stream_falls_back_to_generator_path(self):
        skiplist = SkipList(AddressSpaceAllocator(), "s")
        skiplist.build(range(0, 500, 5), range(0, 1_000, 10))
        factory = lambda key, il: skip_lookup_stream(skiplist, key, il)
        tasks = BulkLookup.stream(factory, [0, 35, 120, 495, 7])
        got, _, expected, _ = run_both("CORO", tasks, 3)
        assert got == expected
        assert compiled_stats()["fallbacks_by_reason"] == {"workload_kind": 1}

    def test_tracer_enabled_engine_falls_back(self):
        array = small_array()
        tasks = BulkLookup.sorted_array(array, [3, 99, 4_000])
        reset_compiled_stats()
        get_executor("CORO").run(
            tasks, ExecutionEngine(HASWELL), group_size=3, recorder=SpanRecorder()
        )
        assert compiled_stats()["fallbacks_by_reason"] == {"tracer": 1}

    @pytest.mark.parametrize("technique", ("Baseline", "GP", "AMAC", "CORO"))
    def test_line_straddling_layout_falls_back(self, technique):
        # 24-byte elements do not divide the 64-byte line: some of them
        # straddle two lines, which the staged schedule does not model.
        array = small_array(nbytes=24 * 5_000, element_size=24)
        probes = [(i * 613) % array.size for i in range(48)]
        tasks = BulkLookup.sorted_array(array, probes)
        got, engine, expected, oracle_engine = run_both(technique, tasks, 5)
        stats = compiled_stats()
        assert stats["replays"] == 0
        assert stats["fallbacks_by_reason"] == {"line_straddle": 1}
        assert got == expected
        assert engine.snapshot() == oracle_engine.snapshot()
        assert engine.metrics.snapshot() == oracle_engine.metrics.snapshot()

    def test_fallback_counter_exported_through_metrics_registry(self):
        reset_compiled_stats()
        get_executor("CORO").run(
            self._csb_tasks(), ExecutionEngine(HASWELL), group_size=4
        )
        source = compiled_metrics_source()
        assert source["compiled_fallbacks"] == 1
        assert "fallbacks" not in source  # renamed for the metrics tree
        registry = MetricsRegistry()
        register_compiled_metrics(registry)
        mounted = registry.snapshot()["interleaving"]["compiled"]
        assert mounted["compiled_fallbacks"] == 1
        assert mounted["fallbacks_by_reason"] == {"workload_kind": 1}
