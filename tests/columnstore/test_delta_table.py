"""Tests for the Delta store, merge, and the table abstraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore import ColumnTable, DeltaStore, merge_delta_into_main
from repro.config import HASWELL
from repro.errors import ColumnStoreError
from repro.sim import ExecutionEngine
from repro.sim.allocator import AddressSpaceAllocator


class TestDeltaStore:
    def test_append_assigns_insertion_codes(self):
        delta = DeltaStore(AddressSpaceAllocator(), "d")
        assert delta.append(50) == 0
        assert delta.append(10) == 1
        assert delta.append(50) == 0  # existing value reuses its code
        assert delta.n_rows == 3
        assert delta.n_values == 2

    def test_row_values(self):
        delta = DeltaStore(AddressSpaceAllocator(), "d")
        delta.append_many([7, 8, 7])
        assert [delta.row_value(r) for r in range(3)] == [7, 8, 7]

    def test_as_column_roundtrip(self):
        delta = DeltaStore(AddressSpaceAllocator(), "d")
        values = [9, 2, 9, 5, 2, 11]
        delta.append_many(values)
        column = delta.as_column()
        assert [column.decode_row(r) for r in range(len(values))] == values

    def test_empty_as_column_rejected(self):
        delta = DeltaStore(AddressSpaceAllocator(), "d")
        with pytest.raises(ColumnStoreError):
            delta.as_column()

    def test_clear(self):
        delta = DeltaStore(AddressSpaceAllocator(), "d")
        delta.append(1)
        delta.clear()
        assert delta.n_rows == 0 and delta.n_values == 0


class TestMerge:
    def test_merge_into_empty_main(self):
        alloc = AddressSpaceAllocator()
        delta = DeltaStore(alloc, "d")
        delta.append_many([5, 1, 5])
        main = merge_delta_into_main(alloc, "m", None, delta)
        assert [main.decode_row(r) for r in range(3)] == [5, 1, 5]
        # Main dictionary is sorted: code order == value order.
        assert main.dictionary.extract(0) == 1

    def test_merge_preserves_main_rows_first(self):
        alloc = AddressSpaceAllocator()
        d1 = DeltaStore(alloc, "d1")
        d1.append_many([3, 7])
        main = merge_delta_into_main(alloc, "m1", None, d1)
        d2 = DeltaStore(alloc, "d2")
        d2.append_many([1, 7])
        merged = merge_delta_into_main(alloc, "m2", main, d2)
        assert [merged.decode_row(r) for r in range(4)] == [3, 7, 1, 7]
        assert merged.dictionary.n_values == 3

    def test_merge_nothing_rejected(self):
        alloc = AddressSpaceAllocator()
        with pytest.raises(ColumnStoreError):
            merge_delta_into_main(alloc, "m", None, DeltaStore(alloc, "d"))

    @given(
        first=st.lists(st.integers(0, 100), min_size=1, max_size=60),
        second=st.lists(st.integers(0, 100), min_size=1, max_size=60),
    )
    @settings(max_examples=25, deadline=None)
    def test_merge_property_row_preservation(self, first, second):
        alloc = AddressSpaceAllocator()
        d1 = DeltaStore(alloc, "d1")
        d1.append_many(first)
        main = merge_delta_into_main(alloc, "m1", None, d1)
        d2 = DeltaStore(alloc, "d2")
        d2.append_many(second)
        merged = merge_delta_into_main(alloc, "m2", main, d2)
        assert [merged.decode_row(r) for r in range(merged.n_rows)] == first + second


class TestColumnTable:
    def make_table(self):
        return ColumnTable(AddressSpaceAllocator(), "sales", ["zip", "qty"])

    def test_schema_validation(self):
        with pytest.raises(ColumnStoreError):
            ColumnTable(AddressSpaceAllocator(), "t", [])
        with pytest.raises(ColumnStoreError):
            ColumnTable(AddressSpaceAllocator(), "t", ["a", "a"])

    def test_insert_requires_all_columns(self):
        table = self.make_table()
        with pytest.raises(ColumnStoreError):
            table.insert_rows([{"zip": 1}])

    def test_rows_accumulate_in_delta_until_merge(self):
        table = self.make_table()
        table.insert_rows([{"zip": 1, "qty": 2}, {"zip": 3, "qty": 4}])
        assert table.main_part("zip") is None
        assert table.delta_part("zip").n_rows == 2
        table.merge()
        assert table.main_part("zip").n_rows == 2
        assert table.delta_part("zip").n_rows == 0

    def test_query_spans_main_and_delta(self):
        table = self.make_table()
        rng = np.random.RandomState(0)
        table.insert_rows(
            [{"zip": int(z), "qty": 1} for z in rng.randint(0, 200, 150)]
        )
        table.merge()
        table.insert_rows([{"zip": 999, "qty": 1}, {"zip": 5, "qty": 1}])
        results = table.query_in(
            ExecutionEngine(HASWELL), "zip", [999, 5], strategy="interleaved"
        )
        assert set(results) == {"main", "delta"}
        found = table.matching_row_values("zip", [999, 5])
        n_found_via_query = results["main"].size + results["delta"].size
        assert n_found_via_query == len(found)

    def test_query_unknown_column(self):
        table = self.make_table()
        with pytest.raises(ColumnStoreError):
            table.query_in(ExecutionEngine(HASWELL), "nope", [1])

    def test_gp_strategy_falls_back_on_delta(self):
        """GP applies to Main only; the Delta part takes the sequential fallback."""
        table = self.make_table()
        table.insert_rows([{"zip": 1, "qty": 1}])
        results = table.query_in(ExecutionEngine(HASWELL), "zip", [1], strategy="gp")
        assert results["delta"].size == 1
