"""A minimal table abstraction over encoded columns.

Enough schema to run the paper's workloads end to end: named integer
columns, each with a Main part and a Delta part, row appends that land in
the Delta, an explicit merge, and IN-predicate queries that evaluate
against both parts (codes differ per part, so each part encodes the
predicate against its own dictionary — two index joins, exactly the
Main/Delta pair Figure 8 measures).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ColumnStoreError
from repro.query import in_predicate_plan
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import ExecutionEngine

from repro.columnstore.column import EncodedColumn
from repro.columnstore.delta import DeltaStore, merge_delta_into_main

__all__ = ["ColumnTable"]


class ColumnTable:
    """A table of integer columns with Main/Delta parts."""

    def __init__(self, allocator: AddressSpaceAllocator, name: str,
                 columns: Sequence[str]) -> None:
        if not columns:
            raise ColumnStoreError("a table needs at least one column")
        if len(set(columns)) != len(columns):
            raise ColumnStoreError("duplicate column names")
        self._allocator = allocator
        self.name = name
        self.column_names = list(columns)
        self._main: dict[str, EncodedColumn | None] = {c: None for c in columns}
        self._delta: dict[str, DeltaStore] = {
            c: DeltaStore(allocator, f"{name}/{c}/delta") for c in columns
        }
        self._merge_count = 0

    def _check_column(self, column: str) -> None:
        if column not in self._main:
            raise ColumnStoreError(f"no column {column!r} in table {self.name!r}")

    @property
    def n_rows(self) -> int:
        first = self.column_names[0]
        main = self._main[first]
        return (main.n_rows if main else 0) + self._delta[first].n_rows

    def insert_rows(self, rows: Sequence[dict]) -> None:
        """Append full rows; every column must be present in each row."""
        for row in rows:
            missing = set(self.column_names) - set(row)
            if missing:
                raise ColumnStoreError(f"row missing columns {sorted(missing)}")
            for column in self.column_names:
                self._delta[column].append(int(row[column]))

    def merge(self) -> None:
        """Fold every column's Delta into its Main."""
        self._merge_count += 1
        for column in self.column_names:
            delta = self._delta[column]
            if delta.n_rows == 0:
                continue
            self._main[column] = merge_delta_into_main(
                self._allocator,
                f"{self.name}/{column}/main{self._merge_count}",
                self._main[column],
                delta,
            )
            delta.clear()

    def main_part(self, column: str) -> EncodedColumn | None:
        self._check_column(column)
        return self._main[column]

    def delta_part(self, column: str) -> DeltaStore:
        self._check_column(column)
        return self._delta[column]

    def query_in(
        self,
        engine: ExecutionEngine,
        column: str,
        predicate_values: Sequence[int],
        *,
        strategy: str | None = None,
        group_size: int | None = None,
    ) -> dict[str, np.ndarray]:
        """IN-predicate query over both parts: matching rows keyed by part.

        Each part runs its own ``repro.query`` plan. ``strategy=None``
        lets each part pick its own calibration-driven policy (the
        Delta's candidate set is coroutine-only); a strategy the Delta
        tree has no workload for (GP, AMAC) takes the plan's sequential
        fallback there.
        """
        self._check_column(column)
        parts = {"main": self._main[column]}
        delta = self._delta[column]
        if delta.n_rows:
            parts["delta"] = delta.as_column()
        results: dict[str, np.ndarray] = {}
        for part, encoded in parts.items():
            if encoded is None:
                continue
            plan = in_predicate_plan(
                encoded, predicate_values, strategy=strategy, group_size=group_size
            )
            results[part] = np.asarray(plan.execute(engine).value, dtype=np.int64)
        return results

    def query_in_conjunctive(
        self,
        engine: ExecutionEngine,
        predicates: "dict[str, Sequence[int]]",
        *,
        strategy: str | None = None,
        group_size: int | None = None,
    ) -> dict[str, "np.ndarray"]:
        """Conjunctive IN-predicates: rows satisfying *every* column's list.

        Each column encodes its own predicate list against its own
        dictionary (one index join per column — the encode cost scales
        with the number of predicated columns), then the per-column row
        sets are intersected within each part. Returns matching row
        indices keyed by part (``"main"``/``"delta"``).
        """
        if not predicates:
            raise ColumnStoreError("need at least one predicated column")
        for column in predicates:
            self._check_column(column)
        part_rows: dict[str, np.ndarray] = {}
        for column, values in predicates.items():
            results = self.query_in(
                engine, column, values, strategy=strategy, group_size=group_size
            )
            for part, rows in results.items():
                if part in part_rows:
                    rows = np.intersect1d(part_rows[part], rows)
                part_rows[part] = rows
        return part_rows

    def matching_row_values(self, column: str, predicate_values) -> list[int]:
        """Brute-force oracle: row values that satisfy the IN predicate."""
        self._check_column(column)
        wanted = set(int(v) for v in predicate_values)
        out = []
        main = self._main[column]
        if main is not None:
            for row in range(main.n_rows):
                value = main.decode_row(row)
                if value in wanted:
                    out.append(value)
        delta = self._delta[column]
        for row in range(delta.n_rows):
            value = delta.row_value(row)
            if value in wanted:
                out.append(value)
        return out
