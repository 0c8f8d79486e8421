"""Workload generation matching the paper's methodology (Section 5.3).

Arrays are filled from their indices ("we generate the array values using
the array indices"); lookup lists are uniform samples of the array values
drawn from a Mersenne Twister seeded with 0 (the paper's ``std::mt19937``
with ``std::uniform_int_distribution``); Figure 4 sorts the lookup list
as a preprocessing step.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.indexes.sorted_array import (
    INT_ELEMENT_SIZE,
    STRING_ELEMENT_SIZE,
    ImplicitSortedArray,
    int_array_of_bytes,
    string_array_of_bytes,
)
from repro.sim.allocator import AddressSpaceAllocator
from repro.workloads.strings import index_to_key

__all__ = [
    "MB",
    "GB",
    "PAPER_SIZE_GRID",
    "QUICK_SIZE_GRID",
    "make_table",
    "lookup_indices",
    "lookup_values",
    "sorted_lookup_values",
    "synthetic_in_predicate",
]

MB = 1 << 20
GB = 1 << 30

#: The paper's x-axis: 1 MB to 2 GB, doubling.
PAPER_SIZE_GRID = [MB << i for i in range(12)]
#: A reduced grid that still brackets the 25 MB LLC boundary.
QUICK_SIZE_GRID = [MB, 4 * MB, 16 * MB, 64 * MB, 256 * MB, GB]


def make_table(
    allocator: AddressSpaceAllocator,
    name: str,
    nbytes: int,
    element: str = "int",
) -> ImplicitSortedArray:
    """An implicit sorted array of ``nbytes`` of int or string values."""
    if element == "int":
        return int_array_of_bytes(allocator, name, nbytes, INT_ELEMENT_SIZE)
    if element == "string":
        return string_array_of_bytes(allocator, name, nbytes, STRING_ELEMENT_SIZE)
    raise WorkloadError(f"unknown element type {element!r}")


def lookup_indices(n_lookups: int, table_size: int, seed: int = 0) -> np.ndarray:
    """Uniform random array positions, MT19937-seeded (default seed 0)."""
    if n_lookups <= 0 or table_size <= 0:
        raise WorkloadError("lookup count and table size must be positive")
    rng = np.random.RandomState(seed)  # Mersenne Twister, like std::mt19937
    return rng.randint(0, table_size, n_lookups)


def lookup_values(
    n_lookups: int,
    table: ImplicitSortedArray,
    seed: int = 0,
    element: str = "int",
) -> list:
    """Lookup values drawn from the table's value domain."""
    indices = lookup_indices(n_lookups, table.size, seed)
    if element == "int":
        return [int(i) for i in indices]
    if element == "string":
        return [index_to_key(int(i)) for i in indices]
    raise WorkloadError(f"unknown element type {element!r}")


def sorted_lookup_values(
    n_lookups: int,
    table: ImplicitSortedArray,
    seed: int = 0,
    element: str = "int",
) -> list:
    """Figure 4's preprocessing: the same values, sorted ascending."""
    return sorted(lookup_values(n_lookups, table, seed, element))


def synthetic_in_predicate(
    allocator: AddressSpaceAllocator,
    store: str,
    dict_bytes: int,
    n_predicates: int,
    n_rows: int | None = None,
    seed: int = 0,
):
    """A synthetic IN-predicate query: ``(column, predicate_values)``.

    The column encodes ``n_rows`` (default 400 per predicate, so the
    scan:encode ratio is scale-independent) uniform random codes
    against an implicit Main (sorted array) or Delta (CSB+-tree)
    dictionary of ``dict_bytes``. The predicates are uniform over the
    dictionary's values, drawn after the codes from the same
    ``RandomState(seed)``.
    """
    from repro.columnstore import DeltaDictionary, EncodedColumn, MainDictionary

    if store == "main":
        dictionary = MainDictionary.implicit(allocator, "dict", dict_bytes)
    elif store == "delta":
        dictionary = DeltaDictionary.implicit(allocator, "dict", dict_bytes)
    else:
        raise WorkloadError(f"store must be main or delta, not {store!r}")
    if n_rows is None:
        n_rows = 400 * n_predicates
    rng = np.random.RandomState(seed)
    codes = rng.randint(0, dictionary.n_values, n_rows)
    column = EncodedColumn(dictionary, codes, allocator, "col")
    predicates = rng.randint(0, dictionary.n_values, n_predicates).tolist()
    return column, predicates
