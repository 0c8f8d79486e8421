"""Tests for encoded columns, scans, and IN-predicate queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore import (
    ENCODE_STRATEGIES,
    DeltaStore,
    EncodedColumn,
    MainDictionary,
    scan_matching_rows,
)
from repro.config import HASWELL
from repro.errors import ColumnStoreError
from repro.indexes.base import INVALID_CODE
from repro.query import in_predicate_plan
from repro.sim import ExecutionEngine
from repro.sim.allocator import AddressSpaceAllocator


def make_column(row_values, name="col"):
    return EncodedColumn.from_values(
        AddressSpaceAllocator(), name, np.asarray(row_values)
    )


def run_query(column, predicates, engine=None, **kwargs):
    """Execute the IN-predicate plan; returns the PlanResult."""
    plan = in_predicate_plan(column, predicates, **kwargs)
    return plan.execute(engine or ExecutionEngine(HASWELL))


def encoded(result):
    """The encode join's codes, one per predicate (INVALID_CODE misses)."""
    return list(result.extras["in_predicate_encode"])


def matched_rows(result):
    return sorted(np.asarray(result.value).tolist())


class TestEncodedColumn:
    def test_roundtrip_decoding(self):
        rows = [5, 3, 5, 9, 3]
        column = make_column(rows)
        assert [column.decode_row(r) for r in range(5)] == rows
        assert column.dictionary.n_values == 3

    def test_empty_rejected(self):
        with pytest.raises(ColumnStoreError):
            make_column([])

    def test_out_of_range_codes_rejected(self):
        alloc = AddressSpaceAllocator()
        dictionary = MainDictionary.from_values(alloc, "d", [1, 2])
        with pytest.raises(ColumnStoreError):
            EncodedColumn(dictionary, np.array([0, 5]), alloc, "c")

    def test_encode_all_strategies_agree(self):
        rng = np.random.RandomState(0)
        rows = rng.randint(0, 2_000, 4_000)
        column = make_column(rows)
        probes = rng.randint(-10, 2_010, 80).tolist()
        expected = [column.dictionary.locate(p) for p in probes]
        for strategy in ENCODE_STRATEGIES:
            result = run_query(column, probes, strategy=strategy, group_size=6)
            assert encoded(result) == expected, strategy

    def test_unknown_strategy_rejected(self):
        column = make_column([1, 2, 3])
        with pytest.raises(ColumnStoreError):
            run_query(column, [1], strategy="spp")

    def test_gp_rejected_for_delta(self):
        from repro.columnstore import DeltaDictionary

        alloc = AddressSpaceAllocator()
        delta_dict = DeltaDictionary.from_values(alloc, "dd", [3, 1, 2])
        column = EncodedColumn(delta_dict, np.array([0, 1, 2]), alloc, "c")
        assert column.locate_executors == {"sequential", "coro"}
        for executor in ("gp", "amac"):
            assert column.locate_job([1], executor) is None


class TestPolicyDrivenEncode:
    """The query path defaults to the calibration-driven policy."""

    def test_small_dictionary_policy_is_sequential(self):
        column = make_column(list(range(1_000)))
        policy = column.locate_policy(ExecutionEngine(HASWELL), 100)
        assert not policy.interleave
        assert policy.executor_name == "sequential"

    def test_large_dictionary_policy_interleaves(self):
        from repro.columnstore import MainDictionary

        alloc = AddressSpaceAllocator()
        dictionary = MainDictionary.implicit(alloc, "d", 256 << 20)
        column = EncodedColumn(dictionary, np.array([0, 1]), alloc, "c")
        policy = column.locate_policy(ExecutionEngine(HASWELL), 10_000)
        assert policy.interleave
        assert policy.technique in ("GP", "AMAC", "CORO")

    def test_delta_policy_candidates_are_coroutine_only(self):
        from repro.columnstore import DeltaDictionary

        alloc = AddressSpaceAllocator()
        delta_dict = DeltaDictionary.implicit(alloc, "dd", 256 << 20)
        column = EncodedColumn(delta_dict, np.array([0, 1]), alloc, "c")
        policy = column.locate_policy(ExecutionEngine(HASWELL), 10_000)
        assert policy.interleave
        assert policy.technique == "CORO"

    def test_default_query_matches_forced_sequential(self):
        rng = np.random.RandomState(9)
        rows = rng.randint(0, 400, 2_000)
        column = make_column(rows)
        predicates = rng.randint(0, 450, 30).tolist()
        defaulted = run_query(column, predicates)
        forced = run_query(column, predicates, strategy="sequential")
        # The tiny dictionary fits the LLC, so the policy picks
        # sequential — identical results *and* identical cycles.
        assert encoded(defaulted) == encoded(forced)
        assert defaulted.total_cycles == forced.total_cycles
        assert defaulted.profile("in_predicate_encode").attrs["strategy"] == (
            "sequential"
        )


class TestScan:
    def test_matching_rows(self):
        column = make_column([10, 20, 10, 30, 20, 20])
        codes = [column.dictionary.locate(20)]
        rows = scan_matching_rows(ExecutionEngine(HASWELL), column, codes)
        assert rows.tolist() == [1, 4, 5]

    def test_empty_code_set(self):
        column = make_column([1, 2, 3])
        rows = scan_matching_rows(ExecutionEngine(HASWELL), column, [])
        assert rows.size == 0

    def test_scan_cost_scales_with_rows_not_dictionary(self):
        small = make_column(list(range(100)) * 2)
        engine_small = ExecutionEngine(HASWELL)
        scan_matching_rows(engine_small, small, [0])
        big_dict = make_column(list(range(200)))
        engine_big = ExecutionEngine(HASWELL)
        scan_matching_rows(engine_big, big_dict, [0])
        assert engine_small.clock == engine_big.clock  # both 200 rows


class TestInPredicateQuery:
    def test_matches_brute_force(self):
        rng = np.random.RandomState(3)
        rows = rng.randint(0, 500, 3_000)
        column = make_column(rows)
        predicates = rng.randint(0, 600, 40).tolist()
        result = run_query(column, predicates, strategy="interleaved")
        expected = np.flatnonzero(np.isin(rows, list(set(predicates))))
        assert matched_rows(result) == expected.tolist()

    def test_absent_values_encode_invalid(self):
        column = make_column([1, 2, 3])
        result = run_query(column, [2, 99])
        assert encoded(result)[1] == INVALID_CODE
        assert column.decode_row(int(result.value[0])) == 2

    def test_profiles_partition_total(self):
        column = make_column(list(range(2_000)))
        engine = ExecutionEngine(HASWELL)
        result = run_query(column, list(range(0, 2_000, 50)), engine)
        assert result.profile("in_predicate_encode").cycles > 0
        assert result.profile("scan").cycles > 0
        assert result.profile("aggregate").cycles > 0
        assert result.total_cycles == engine.clock

    def test_strategy_does_not_change_rows(self):
        rng = np.random.RandomState(4)
        rows = rng.randint(0, 300, 1_000)
        column = make_column(rows)
        predicates = rng.randint(0, 350, 25).tolist()
        outcomes = [
            matched_rows(run_query(column, predicates, strategy=s))
            for s in ENCODE_STRATEGIES
        ]
        assert all(o == outcomes[0] for o in outcomes)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_query_equals_brute_force_property(self, data):
        rows = data.draw(
            st.lists(st.integers(0, 50), min_size=1, max_size=200), label="rows"
        )
        predicates = data.draw(
            st.lists(st.integers(0, 60), min_size=1, max_size=20),
            label="predicates",
        )
        store = data.draw(st.sampled_from(("main", "delta")), label="store")
        strategy = data.draw(
            st.sampled_from((None,) + ENCODE_STRATEGIES), label="strategy"
        )
        sizes = {
            name: data.draw(st.none() | st.integers(1, 6), label=name)
            for name in (
                "group_size", "scan_batch", "probe_batch",
                "task_buffer", "match_buffer",
            )
        }
        allocator = AddressSpaceAllocator()
        if store == "main":
            column = EncodedColumn.from_values(allocator, "col", rows)
        else:
            delta = DeltaStore(allocator, "col")
            delta.append_many(rows)
            column = delta.as_column()
        engine = ExecutionEngine(HASWELL)
        result = run_query(column, predicates, engine, strategy=strategy, **sizes)

        wanted = set(predicates)
        assert matched_rows(result) == [
            i for i, v in enumerate(rows) if v in wanted
        ]
        assert encoded(result) == [column.dictionary.locate(v) for v in predicates]
        assert result.total_cycles == engine.clock
