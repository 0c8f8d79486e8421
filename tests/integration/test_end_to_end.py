"""End-to-end integration tests across all layers."""

import numpy as np

from repro import (
    HASWELL,
    INVALID_CODE,
    AddressSpaceAllocator,
    ColumnTable,
    ExecutionEngine,
    binary_search_coro,
    csb_lookup_stream,
    int_array_of_bytes,
    run_interleaved,
    run_sequential,
)
from repro.columnstore import EncodedColumn
from repro.indexes import ImplicitCSBTree
from repro.query import in_predicate_plan
from repro.sim.memory import MemorySystem
from repro.workloads.tpcds import make_q8_workload


class TestQ8EndToEnd:
    def test_q8_all_strategies_same_answer(self):
        workload = make_q8_workload(AddressSpaceAllocator(), n_rows=3_000, seed=1)
        counts = set()
        for strategy in ("sequential", "interleaved", "gp", "amac"):
            results = workload.table.query_in(
                ExecutionEngine(HASWELL), "ca_zip", workload.predicates,
                strategy=strategy,
            )
            counts.add(sum(rows.size for rows in results.values()))
        assert counts == {workload.expected_matches}


class TestMixedIndexInterleaving:
    def test_heterogeneous_streams_in_one_group(self):
        """Coroutines from different index types interleave together —
        the schedulers are lookup-agnostic (Section 4)."""
        alloc = AddressSpaceAllocator()
        array = int_array_of_bytes(alloc, "arr", 1 << 20)
        tree = ImplicitCSBTree(alloc, "tree", 50_000)
        jobs = []
        for i in range(40):
            if i % 2 == 0:
                jobs.append(("array", i * 997 % array.size))
            else:
                jobs.append(("tree", i * 1231 % 50_000))

        def factory(job, interleave):
            kind, value = job
            if kind == "array":
                return binary_search_coro(array, value, interleave)
            return csb_lookup_stream(tree, value, interleave)

        seq = run_sequential(ExecutionEngine(HASWELL), factory, jobs)
        inter = run_interleaved(ExecutionEngine(HASWELL), factory, jobs, 6)
        assert seq == inter
        for job, result in zip(jobs, seq):
            assert result == job[1]


class TestRobustnessClaim:
    """The headline claim: interleaving makes lookups robust to size."""

    def test_interleaved_degrades_less_than_sequential(self):
        from repro.analysis import measure_binary_search

        small, large = 1 << 20, 256 << 20
        seq_growth = (
            measure_binary_search(large, "Baseline", n_lookups=150).cycles_per_search
            / measure_binary_search(small, "Baseline", n_lookups=150).cycles_per_search
        )
        coro_growth = (
            measure_binary_search(large, "CORO", n_lookups=150).cycles_per_search
            / measure_binary_search(small, "CORO", n_lookups=150).cycles_per_search
        )
        # 256x more data: sequential blows up several-fold, interleaved
        # grows far more gently (Figure 3).
        assert seq_growth > 2 * coro_growth

    def test_query_response_robustness(self):
        from repro.analysis import measure_query

        def growth(strategy):
            small = measure_query(
                1 << 20, "main", strategy, n_predicates=400, n_rows=100_000
            )
            large = measure_query(
                256 << 20, "main", strategy, n_predicates=400, n_rows=100_000
            )
            return large.locate_cycles / small.locate_cycles

        assert growth("interleaved") < growth("sequential")


class TestFullColumnLifecycle:
    def test_insert_merge_query_insert_query(self):
        table = ColumnTable(AddressSpaceAllocator(), "orders", ["item"])
        rng = np.random.RandomState(11)
        first_batch = rng.randint(0, 400, 500)
        table.insert_rows([{"item": int(v)} for v in first_batch])
        table.merge()
        second_batch = rng.randint(300, 700, 200)
        table.insert_rows([{"item": int(v)} for v in second_batch])

        predicates = rng.randint(0, 700, 30).tolist()
        results = table.query_in(
            ExecutionEngine(HASWELL), "item", predicates, strategy="interleaved"
        )
        found = sum(rows.size for rows in results.values())
        wanted = set(predicates)
        expected = sum(int(v) in wanted for v in first_batch) + sum(
            int(v) in wanted for v in second_batch
        )
        assert found == expected

        table.merge()  # second merge folds the new delta in
        results = table.query_in(
            ExecutionEngine(HASWELL), "item", predicates, strategy="gp"
        )
        assert results["main"].size == expected


class TestStatisticsConsistency:
    def test_tmam_consistent_after_full_workload(self):
        alloc = AddressSpaceAllocator()
        column = EncodedColumn.from_values(
            alloc, "c", np.random.RandomState(0).randint(0, 500, 2_000)
        )
        engine = ExecutionEngine(HASWELL)
        in_predicate_plan(
            column, list(range(0, 600, 7)), strategy="interleaved"
        ).execute(engine)
        engine.tmam.check_consistency()

    def test_lfb_never_overflows_under_gp(self):
        from repro.interleaving import gp_binary_search_bulk

        alloc = AddressSpaceAllocator()
        table = int_array_of_bytes(alloc, "arr", 64 << 20)
        memory = MemorySystem(HASWELL)
        engine = ExecutionEngine(HASWELL, memory)
        gp_binary_search_bulk(engine, table, list(range(0, 10**6, 9973)), 12)
        assert memory.lfbs.peak_occupancy <= HASWELL.n_line_fill_buffers
