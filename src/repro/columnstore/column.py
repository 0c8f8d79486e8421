"""Dictionary-encoded columns: a dictionary plus a code vector.

The encoded representation of Section 2.1: the dictionary maps values to
a dense integer range, and the column body is the vector of codes. Bulk
``locate`` over a list of values is the index join S |><| D this paper is
about. The ``repro.query`` plan (:func:`repro.query.in_predicate_plan`)
runs it; this module decides how. It owns the encode strategies, the
executor each one runs on, and the executors each dictionary store has a
workload for. When no strategy is forced, the calibration-driven
:func:`~repro.interleaving.policies.choose_policy_for_bytes` decides —
small dictionaries run sequentially, DRAM-resident ones interleave at the
Inequality-1 group size.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ColumnStoreError
from repro.indexes.base import INVALID_CODE
from repro.indexes.binary_search import DEFAULT_COSTS, SearchCosts
from repro.interleaving.executor import BulkLookup, get_executor
from repro.interleaving.policies import (
    ADAPTIVE_CANDIDATES,
    ExecutionPolicy,
    choose_policy_for_bytes,
)
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import ExecutionEngine

from repro.columnstore.dictionary import DeltaDictionary, MainDictionary

__all__ = ["EncodedColumn", "ENCODE_STRATEGIES"]

#: Encode strategies (the names reports carry) -> executor registry keys.
_STRATEGY_EXECUTORS = {
    "sequential": "sequential",
    "interleaved": "coro",
    "gp": "gp",
    "amac": "amac",
}

#: Execution strategies a bulk locate accepts.
ENCODE_STRATEGIES = tuple(_STRATEGY_EXECUTORS)

#: Executors each dictionary store has a bulk-locate workload for. The
#: coroutine streams serve both stores (the paper's practicality
#: argument); GP and AMAC rewrite the sorted-array binary search, so only
#: the Main dictionary has them.
_STORE_EXECUTORS = {
    MainDictionary: frozenset({"sequential", "coro", "gp", "amac"}),
    DeltaDictionary: frozenset({"sequential", "coro"}),
}


class EncodedColumn:
    """A dictionary plus a numpy code vector in simulated memory."""

    def __init__(
        self,
        dictionary: "MainDictionary | DeltaDictionary",
        codes: np.ndarray,
        allocator: AddressSpaceAllocator,
        name: str,
        code_size: int = 4,
    ) -> None:
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise ColumnStoreError("code vector must be one-dimensional")
        if codes.size and (
            codes.min() < 0 or codes.max() >= dictionary.n_values
        ):
            raise ColumnStoreError("code vector references out-of-range codes")
        self.dictionary = dictionary
        self.codes = codes
        self.code_size = code_size
        self.region = allocator.allocate(
            f"{name}/codes", max(1, codes.size) * code_size
        )

    @classmethod
    def from_values(
        cls,
        allocator: AddressSpaceAllocator,
        name: str,
        values: Sequence[int],
    ) -> "EncodedColumn":
        """Build a Main-style column: sorted dictionary + encoded rows."""
        if len(values) == 0:
            raise ColumnStoreError("column needs at least one row")
        dictionary = MainDictionary.from_values(allocator, f"{name}/dict", values)
        codes = np.array([dictionary.locate(int(v)) for v in values], dtype=np.int64)
        return cls(dictionary, codes, allocator, name)

    @property
    def n_rows(self) -> int:
        return int(self.codes.size)

    @property
    def locate_executors(self) -> frozenset[str]:
        """Executor registry keys this column's store can locate with."""
        return _STORE_EXECUTORS[type(self.dictionary)]

    def locate_policy(
        self, engine: ExecutionEngine, n_lookups: int
    ) -> ExecutionPolicy:
        """Pick the execution policy for a bulk locate of ``n_lookups``.

        The candidates are the interleaving techniques the store supports:
        Delta dictionaries leave only the coroutine scheduler, which is
        the paper's maintenance-cost argument in policy form.
        """
        candidates = tuple(
            technique
            for technique in ADAPTIVE_CANDIDATES
            if technique in self.locate_executors
        )
        return choose_policy_for_bytes(
            engine.arch, self.dictionary.nbytes, n_lookups, candidates=candidates
        )

    def decode_row(self, row: int) -> int:
        """Value of one row (pure Python)."""
        return self.dictionary.extract(int(self.codes[row]))

    def decode_rows(
        self,
        engine: ExecutionEngine,
        rows: Sequence[int],
        *,
        strategy: str = "sequential",
        group_size: int = 8,
    ) -> list[int]:
        """Materialize row values via ``extract`` (the decode-side join).

        Scattered row decodes over a large dictionary are themselves
        pointer-chasing; ``strategy="interleaved"`` hides their misses
        with the same scheduler the encode side uses.
        """
        if strategy not in ("sequential", "interleaved"):
            raise ColumnStoreError(
                f"unknown strategy {strategy!r}; decode supports "
                "sequential/interleaved"
            )
        codes = [int(self.codes[row]) for row in rows]
        dictionary = self.dictionary
        tasks = BulkLookup.stream(
            lambda c, il: dictionary.extract_stream(c, il), codes
        )
        return get_executor(_STRATEGY_EXECUTORS[strategy]).run(
            tasks, engine, group_size=group_size
        )

    # ------------------------------------------------------------------
    # The index join: bulk locate
    # ------------------------------------------------------------------

    def resolve_locate_execution(
        self,
        engine: ExecutionEngine,
        n_lookups: int,
        *,
        strategy: str | None = None,
        group_size: int | None = None,
    ) -> tuple[str, str, int]:
        """Resolve ``(strategy, executor_name, group_size)`` for a bulk locate.

        An explicit ``strategy`` wins and runs at G=6 unless
        ``group_size`` says otherwise. ``strategy=None`` defers to
        :meth:`locate_policy`'s calibration-driven choice and its group
        size. Either way the executor is the strategy's registry key.
        """
        if strategy is None:
            policy = self.locate_policy(engine, n_lookups)
            executor = policy.executor_name.lower()
            strategy = next(
                name for name, key in _STRATEGY_EXECUTORS.items() if key == executor
            )
            if group_size is None:
                group_size = policy.group_size
        elif strategy not in _STRATEGY_EXECUTORS:
            raise ColumnStoreError(
                f"unknown strategy {strategy!r}; expected one of {ENCODE_STRATEGIES}"
            )
        return (
            strategy,
            _STRATEGY_EXECUTORS[strategy],
            6 if group_size is None else group_size,
        )

    def locate_job(
        self,
        values: Sequence[int],
        executor_name: str,
        costs: SearchCosts = DEFAULT_COSTS,
    ):
        """Bulk-locate workload for one executor: ``(job, post)`` or ``None``.

        ``job`` is the :class:`BulkLookup` to hand the named executor and
        ``post`` maps its raw results to one code per input
        (``INVALID_CODE`` for absent values). ``None`` means the store
        has no workload for that executor (see :attr:`locate_executors`).
        """
        executor_name = executor_name.lower()
        if executor_name not in self.locate_executors:
            return None
        dictionary = self.dictionary
        if executor_name in ("sequential", "coro"):
            job = BulkLookup.stream(
                lambda v, il: dictionary.locate_stream(v, il, costs), values
            )
            return job, lambda raw: raw
        job = BulkLookup.sorted_array(dictionary.array, values, costs)

        def membership(lows: Sequence[int]) -> list[int]:
            # GP and AMAC return lower-bound positions; the dictionary
            # join needs membership, so map misses to INVALID_CODE (pure
            # Python — no simulated cycles).
            return [
                low if dictionary.array.value_at(low) == value else INVALID_CODE
                for low, value in zip(lows, values)
            ]

        return job, membership
