"""Sorted arrays in simulated memory — the Main dictionary's substrate.

Two families implement the same :class:`~repro.indexes.base.SearchableTable`
protocol:

* **Materialized** arrays (:class:`SortedIntArray`,
  :class:`SortedStringArray`) hold their values in numpy arrays. Used for
  correctness tests and realistic data.
* **Implicit** arrays (:class:`ImplicitSortedArray`) compute ``value_at``
  from the index. The paper's microbenchmarks fill arrays with their own
  indices ("we generate the array values using the array indices",
  Section 5.3), so a 2 GB array needs no storage — only addresses — which
  is what lets the simulator sweep 1 MB–2 GB in Python.

Both are access-equivalent: a lookup touches the same simulated addresses
either way (property-tested in ``tests/indexes``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.config import CostModel
from repro.errors import IndexStructureError
from repro.indexes.base import check_index
from repro.sim.address import Region
from repro.sim.allocator import AddressSpaceAllocator
from repro.workloads.strings import index_to_key

__all__ = [
    "SortedIntArray",
    "SortedStringArray",
    "ImplicitSortedArray",
    "int_array_of_bytes",
    "string_array_of_bytes",
    "INT_ELEMENT_SIZE",
    "STRING_ELEMENT_SIZE",
]

#: The paper encodes INTEGER dictionary values in 4 bytes.
INT_ELEMENT_SIZE = 4
#: 15-character strings plus a terminator, stored inline.
STRING_ELEMENT_SIZE = 16

_COST = CostModel()
_STRING_EXTRA = (
    _COST.string_compare_extra_cycles,
    _COST.string_compare_extra_instructions,
)


class _ArrayBase:
    """Shared layout logic: elements packed contiguously in one region."""

    def __init__(self, region: Region, size: int, element_size: int) -> None:
        if size <= 0:
            raise IndexStructureError("array must have at least one element")
        if element_size <= 0:
            raise IndexStructureError("element size must be positive")
        if region.size < size * element_size:
            raise IndexStructureError(
                f"region {region.name!r} too small: need {size * element_size} "
                f"bytes, have {region.size}"
            )
        self.region = region
        self._size = size
        self._element_size = element_size

    @property
    def size(self) -> int:
        return self._size

    @property
    def element_size(self) -> int:
        return self._element_size

    @property
    def nbytes(self) -> int:
        return self._size * self._element_size

    def address_of(self, index: int) -> int:
        check_index(self, index)
        return self.region.base + index * self._element_size

    def __len__(self) -> int:
        return self._size


class SortedIntArray(_ArrayBase):
    """Materialized sorted array of integers."""

    compare_extra = (0, 0)

    def __init__(self, region: Region, values: np.ndarray,
                 element_size: int = INT_ELEMENT_SIZE) -> None:
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1:
            raise IndexStructureError("values must be one-dimensional")
        if values.size > 1 and np.any(np.diff(values) < 0):
            raise IndexStructureError("values must be sorted ascending")
        super().__init__(region, int(values.size), element_size)
        self._values = values

    @classmethod
    def from_values(
        cls,
        allocator: AddressSpaceAllocator,
        name: str,
        values: "np.ndarray | list[int]",
        element_size: int = INT_ELEMENT_SIZE,
    ) -> "SortedIntArray":
        values = np.asarray(values, dtype=np.int64)
        region = allocator.allocate(name, max(1, values.size) * element_size)
        return cls(region, values, element_size)

    def value_at(self, index: int) -> int:
        check_index(self, index)
        return int(self._values[index])

    def __getitem__(self, index: int) -> int:
        return self.value_at(index)


class SortedStringArray(_ArrayBase):
    """Materialized sorted array of fixed-width byte strings."""

    compare_extra = _STRING_EXTRA

    def __init__(self, region: Region, values: "np.ndarray | list[bytes]",
                 element_size: int = STRING_ELEMENT_SIZE) -> None:
        values = np.asarray(values, dtype=f"S{element_size}")
        if values.ndim != 1:
            raise IndexStructureError("values must be one-dimensional")
        as_list = values.tolist()
        if any(a > b for a, b in zip(as_list, as_list[1:])):
            raise IndexStructureError("values must be sorted ascending")
        super().__init__(region, int(values.size), element_size)
        self._values = values

    @classmethod
    def from_values(
        cls,
        allocator: AddressSpaceAllocator,
        name: str,
        values: "np.ndarray | list[bytes]",
        element_size: int = STRING_ELEMENT_SIZE,
    ) -> "SortedStringArray":
        region = allocator.allocate(name, max(1, len(values)) * element_size)
        return cls(region, values, element_size)

    def value_at(self, index: int) -> bytes:
        check_index(self, index)
        return bytes(self._values[index])

    def __getitem__(self, index: int) -> bytes:
        return self.value_at(index)


class ImplicitSortedArray(_ArrayBase):
    """Sorted array whose values are a monotone function of the index.

    With the default identity function this is the paper's microbenchmark
    integer array; with :func:`repro.workloads.strings.index_to_key` it is
    the 15-character string array. Arbitrary monotone ``value_fn`` are
    accepted (tests verify monotonicity lazily on access).
    """

    def __init__(
        self,
        region: Region,
        size: int,
        element_size: int = INT_ELEMENT_SIZE,
        value_fn: Callable[[int], object] | None = None,
        compare_extra: tuple[int, int] = (0, 0),
    ) -> None:
        super().__init__(region, size, element_size)
        #: True when ``value_at(i) == i`` — the paper's microbenchmark
        #: array. The staged replay path vectorizes the probe
        #: recurrence with numpy when this holds.
        self.is_identity = value_fn is None
        self._value_fn = value_fn or (lambda index: index)
        self.compare_extra = compare_extra

    def value_at(self, index: int) -> object:
        check_index(self, index)
        return self._value_fn(index)

    def __getitem__(self, index: int) -> object:
        return self.value_at(index)


def int_array_of_bytes(
    allocator: AddressSpaceAllocator,
    name: str,
    nbytes: int,
    element_size: int = INT_ELEMENT_SIZE,
) -> ImplicitSortedArray:
    """Implicit integer array occupying ``nbytes`` (values == indices)."""
    size = nbytes // element_size
    if size <= 0:
        raise IndexStructureError(f"{nbytes} bytes holds no {element_size}B element")
    region = allocator.allocate(name, nbytes)
    return ImplicitSortedArray(region, size, element_size)


def string_array_of_bytes(
    allocator: AddressSpaceAllocator,
    name: str,
    nbytes: int,
    element_size: int = STRING_ELEMENT_SIZE,
) -> ImplicitSortedArray:
    """Implicit 15-char string array occupying ``nbytes`` (Section 5.3)."""
    size = nbytes // element_size
    if size <= 0:
        raise IndexStructureError(f"{nbytes} bytes holds no {element_size}B element")
    region = allocator.allocate(name, nbytes)
    return ImplicitSortedArray(
        region,
        size,
        element_size,
        value_fn=index_to_key,
        compare_extra=_STRING_EXTRA,
    )
