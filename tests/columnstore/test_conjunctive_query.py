"""Tests for conjunctive (multi-column) IN-predicate queries."""

import numpy as np
import pytest

from repro.columnstore import ColumnTable
from repro.config import HASWELL
from repro.errors import ColumnStoreError
from repro.sim import ExecutionEngine
from repro.sim.allocator import AddressSpaceAllocator


def make_table(n_rows=800, seed=0, merged=True):
    rng = np.random.RandomState(seed)
    zips = rng.randint(0, 60, n_rows)
    qtys = rng.randint(0, 20, n_rows)
    table = ColumnTable(AddressSpaceAllocator(), "sales", ["zip", "qty"])
    table.insert_rows(
        [{"zip": int(z), "qty": int(q)} for z, q in zip(zips, qtys)]
    )
    if merged:
        table.merge()
    return table, zips, qtys


class TestConjunctiveQuery:
    def test_matches_brute_force(self):
        table, zips, qtys = make_table()
        zip_list = [1, 5, 9, 13]
        qty_list = [2, 3]
        results = table.query_in_conjunctive(
            ExecutionEngine(HASWELL),
            {"zip": zip_list, "qty": qty_list},
            strategy="interleaved",
        )
        expected = np.flatnonzero(
            np.isin(zips, zip_list) & np.isin(qtys, qty_list)
        )
        assert np.array_equal(np.sort(results["main"]), expected)

    def test_single_column_degenerates_to_query_in(self):
        table, zips, _ = make_table()
        zip_list = [3, 7]
        conjunctive = table.query_in_conjunctive(
            ExecutionEngine(HASWELL), {"zip": zip_list}
        )
        plain = table.query_in(ExecutionEngine(HASWELL), "zip", zip_list)
        assert np.array_equal(
            np.sort(conjunctive["main"]), np.sort(plain["main"])
        )

    def test_spans_delta(self):
        table, zips, qtys = make_table(merged=True)
        table.insert_rows([{"zip": 99, "qty": 99}, {"zip": 99, "qty": 1}])
        results = table.query_in_conjunctive(
            ExecutionEngine(HASWELL), {"zip": [99], "qty": [99]}
        )
        assert results["delta"].size == 1

    def test_empty_intersection(self):
        table, _, _ = make_table()
        results = table.query_in_conjunctive(
            ExecutionEngine(HASWELL), {"zip": [1000], "qty": [2000]}
        )
        assert results["main"].size == 0

    def test_strategy_invariance(self):
        table, zips, qtys = make_table(seed=4)
        predicates = {"zip": [2, 4, 6], "qty": [1, 5, 9]}
        outcomes = [
            np.sort(
                table.query_in_conjunctive(
                    ExecutionEngine(HASWELL), predicates, strategy=s
                )["main"]
            ).tolist()
            for s in ("sequential", "interleaved", "gp", "amac")
        ]
        assert all(o == outcomes[0] for o in outcomes)

    def test_no_columns_rejected(self):
        table, _, _ = make_table()
        with pytest.raises(ColumnStoreError):
            table.query_in_conjunctive(ExecutionEngine(HASWELL), {})

    def test_unknown_column_rejected(self):
        table, _, _ = make_table()
        with pytest.raises(ColumnStoreError):
            table.query_in_conjunctive(ExecutionEngine(HASWELL), {"nope": [1]})
