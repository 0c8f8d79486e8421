"""Main and Delta dictionaries (Section 2.1).

SAP HANA keeps two stores per column:

* **Main** (read-optimized): the dictionary is a *sorted array* of the
  distinct values; the array position is the code. ``extract`` is an
  array reference; ``locate`` is a binary search.
* **Delta** (update-friendly): the dictionary is an *unsorted array* in
  insertion order, indexed by a CSB+-tree. ``extract`` is an array
  reference; ``locate`` is a tree lookup — and, as Section 5.5 notes,
  HANA's Delta leaves store *codes*, so each leaf comparison dereferences
  the dictionary array, adding an extra suspension point.

Both come in materialized (numpy-backed) and implicit (address-computed)
forms; the implicit ones let benchmarks sweep dictionary sizes up to 2 GB.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ColumnStoreError, KeyNotFoundError
from repro.indexes.base import INVALID_CODE, SearchableTable
from repro.indexes.binary_search import (
    DEFAULT_COSTS,
    SearchCosts,
    locate_stream,
)
from repro.indexes.csb_tree import CSBTree, TreeInterface
from repro.indexes.csb_tree_synthetic import ImplicitCSBTree
from repro.indexes.sorted_array import (
    INT_ELEMENT_SIZE,
    ImplicitSortedArray,
    SortedIntArray,
)
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import InstructionStream
from repro.sim.events import SUSPEND, Compute, Load, Prefetch

__all__ = ["MainDictionary", "DeltaDictionary", "delta_locate_stream"]


class MainDictionary:
    """Sorted-array dictionary: code == array position."""

    def __init__(self, array: SearchableTable) -> None:
        self.array = array

    @classmethod
    def from_values(
        cls,
        allocator: AddressSpaceAllocator,
        name: str,
        values,
        element_size: int = INT_ELEMENT_SIZE,
    ) -> "MainDictionary":
        values = np.asarray(sorted(set(int(v) for v in values)), dtype=np.int64)
        if values.size == 0:
            raise ColumnStoreError("dictionary needs at least one value")
        return cls(SortedIntArray.from_values(allocator, name, values, element_size))

    @classmethod
    def from_string_values(
        cls,
        allocator: AddressSpaceAllocator,
        name: str,
        values,
        element_size: int = 16,
    ) -> "MainDictionary":
        """Sorted dictionary over fixed-width byte-string values.

        String dictionaries behave like integer ones except that each
        comparison carries the string surcharge (Section 5.3) and
        elements span more bytes per cache line.
        """
        from repro.indexes.sorted_array import SortedStringArray

        distinct = sorted(set(bytes(v) for v in values))
        if not distinct:
            raise ColumnStoreError("dictionary needs at least one value")
        if any(len(v) > element_size for v in distinct):
            raise ColumnStoreError(
                f"values longer than element size {element_size}"
            )
        return cls(
            SortedStringArray.from_values(allocator, name, distinct, element_size)
        )

    @classmethod
    def implicit(
        cls,
        allocator: AddressSpaceAllocator,
        name: str,
        nbytes: int,
        element_size: int = INT_ELEMENT_SIZE,
    ) -> "MainDictionary":
        """Dictionary of ``nbytes`` whose values are 0..n-1 (benchmarks)."""
        size = nbytes // element_size
        if size <= 0:
            raise ColumnStoreError("dictionary size too small")
        region = allocator.allocate(name, nbytes)
        return cls(ImplicitSortedArray(region, size, element_size))

    @classmethod
    def implicit_string(
        cls, allocator: AddressSpaceAllocator, name: str, nbytes: int
    ) -> "MainDictionary":
        """Implicit 15-char string dictionary (benchmark-scale strings)."""
        from repro.indexes.sorted_array import string_array_of_bytes

        return cls(string_array_of_bytes(allocator, name, nbytes))

    @property
    def n_values(self) -> int:
        return self.array.size

    @property
    def nbytes(self) -> int:
        return self.array.size * self.array.element_size

    def extract(self, code: int):
        """Value for a code (pure Python; codes are array positions)."""
        if not 0 <= code < self.array.size:
            raise KeyNotFoundError(f"code {code} out of range")
        return self.array.value_at(code)

    def extract_stream(self, code: int, interleave: bool = False) -> InstructionStream:
        """Simulated ``extract``: one array load.

        A single random load per code — bulk decode of scattered codes
        is itself interleavable (``interleave=True`` adds the prefetch
        and suspension point).
        """
        if not 0 <= code < self.array.size:
            raise KeyNotFoundError(f"code {code} out of range")
        addr = self.array.address_of(code)
        if interleave:
            yield Prefetch(addr, self.array.element_size)
            yield SUSPEND
        yield Load(addr, self.array.element_size)
        yield Compute(1, 1)
        return self.array.value_at(code)

    def locate(self, value) -> int:
        """Code for a value (pure-Python oracle); INVALID_CODE if absent."""
        lo, hi = 0, self.array.size
        while lo < hi:
            mid = (lo + hi) // 2
            if self.array.value_at(mid) <= value:
                lo = mid + 1
            else:
                hi = mid
        position = lo - 1
        if position >= 0 and self.array.value_at(position) == value:
            return position
        return INVALID_CODE

    def locate_stream(
        self,
        value,
        interleave: bool = False,
        costs: SearchCosts = DEFAULT_COSTS,
        *,
        speculative: bool | None = None,
    ) -> InstructionStream:
        """Simulated ``locate``: binary search (Listing 5 coroutine).

        Sequential Main lookups default to the speculative (branchy)
        search HANA runs — the source of the Bad-Speculation slots in
        Table 2; interleaved lookups use the branch-free coroutine.
        """
        if speculative is None:
            speculative = not interleave
        return locate_stream(
            self.array, value, interleave, costs, speculative=speculative
        )


class _DictArrayView:
    """Code-addressed view of a Delta dictionary array."""

    def __init__(self, base: int, element_size: int, value_of_code) -> None:
        self._base = base
        self._element_size = element_size
        self._value_of_code = value_of_code

    @property
    def element_size(self) -> int:
        return self._element_size

    def address_of(self, code: int) -> int:
        return self._base + code * self._element_size

    def value_at(self, code: int):
        return self._value_of_code(code)


def _coprime_multiplier(n: int) -> int:
    """A fixed multiplier coprime with ``n`` (pseudo-random permutation)."""
    candidate = 2_654_435_761 % n  # Knuth's multiplicative constant
    candidate |= 1
    while math.gcd(candidate, n) != 1:
        candidate += 2
    return candidate % n or 1


class DeltaDictionary:
    """Unsorted-array dictionary indexed by a CSB+-tree."""

    def __init__(
        self,
        tree: TreeInterface,
        dict_view: _DictArrayView,
        n_values: int,
        element_size: int,
        *,
        value_of_code,
        code_of_value,
    ) -> None:
        self.tree = tree
        self.dict_view = dict_view
        self.n_values = n_values
        self.element_size = element_size
        self._value_of_code = value_of_code
        self._code_of_value = code_of_value

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_values(
        cls,
        allocator: AddressSpaceAllocator,
        name: str,
        values,
        element_size: int = INT_ELEMENT_SIZE,
        node_size: int = 256,
    ) -> "DeltaDictionary":
        """Materialized Delta: ``values`` in insertion order (code = position)."""
        values = [int(v) for v in values]
        if len(set(values)) != len(values):
            raise ColumnStoreError("dictionary values must be distinct")
        if not values:
            raise ColumnStoreError("dictionary needs at least one value")
        code_of = {value: code for code, value in enumerate(values)}
        ordered = sorted(values)
        tree = CSBTree(
            allocator,
            f"{name}/tree",
            ordered,
            [code_of[v] for v in ordered],
            node_size=node_size,
        )
        region = allocator.allocate(f"{name}/array", len(values) * element_size)
        view = _DictArrayView(region.base, element_size, lambda c: values[c])
        view.region = region
        return cls(
            tree,
            view,
            len(values),
            element_size,
            value_of_code=lambda c: values[c],
            code_of_value=lambda v: code_of.get(v, INVALID_CODE),
        )

    @classmethod
    def implicit(
        cls,
        allocator: AddressSpaceAllocator,
        name: str,
        nbytes: int,
        element_size: int = INT_ELEMENT_SIZE,
        node_size: int = 256,
    ) -> "DeltaDictionary":
        """Implicit Delta over values 0..n-1 inserted in pseudo-random order.

        The insertion order is a multiplicative permutation, so the code
        of value ``v`` is ``v * a mod n`` — enough to scatter the
        dictionary-array accesses that Delta leaf comparisons perform.
        """
        n = nbytes // element_size
        if n <= 0:
            raise ColumnStoreError("dictionary size too small")
        a = _coprime_multiplier(n)
        a_inv = pow(a, -1, n)

        def code_of(value: int) -> int:
            return value * a % n

        def value_of(code: int) -> int:
            return code * a_inv % n

        tree = ImplicitCSBTree(
            allocator,
            f"{name}/tree",
            n,
            node_size=node_size,
            key_size=element_size,
            value_size=element_size,
            code_fn=code_of,
        )
        region = allocator.allocate(f"{name}/array", nbytes)
        view = _DictArrayView(region.base, element_size, value_of)
        view.region = region
        return cls(
            tree,
            view,
            n,
            element_size,
            value_of_code=value_of,
            code_of_value=lambda v: code_of(v) if 0 <= v < n else INVALID_CODE,
        )

    # ------------------------------------------------------------------
    # Access methods
    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Dictionary-array bytes (the paper's x-axis; the tree is extra)."""
        return self.n_values * self.element_size

    def extract(self, code: int):
        if not 0 <= code < self.n_values:
            raise KeyNotFoundError(f"code {code} out of range")
        return self._value_of_code(code)

    def extract_stream(self, code: int, interleave: bool = False) -> InstructionStream:
        if not 0 <= code < self.n_values:
            raise KeyNotFoundError(f"code {code} out of range")
        addr = self.dict_view.address_of(code)
        if interleave:
            yield Prefetch(addr, self.element_size)
            yield SUSPEND
        yield Load(addr, self.element_size)
        yield Compute(1, 1)
        return self._value_of_code(code)

    def locate(self, value) -> int:
        return self._code_of_value(value)

    def locate_stream(
        self, value, interleave: bool = False, costs: SearchCosts = DEFAULT_COSTS
    ) -> InstructionStream:
        return delta_locate_stream(
            self.tree, self.dict_view, value, interleave, costs
        )


#: Fixed computes of a Delta ``locate``: routing through a key-less inner
#: node, and the final comparison of a node search.
_EMPTY_ROUTE = Compute(1, 1)
_FINAL_COMPARE = Compute(2, 2)


def delta_locate_stream(
    tree: TreeInterface,
    dict_view: _DictArrayView,
    value,
    interleave: bool = False,
    costs: SearchCosts = DEFAULT_COSTS,
) -> InstructionStream:
    """Delta ``locate``: CSB+-tree traversal with code-dereferencing leaves.

    Inner levels route on value separators exactly like Listing 6. Leaf
    comparisons load the stored *code* and then the dictionary-array
    entry it points at — a random access that gets its own prefetch and
    suspension point in interleaved mode (Section 5.5).
    """
    # Events are immutable, so each fixed compute is built once.
    iteration = Compute(costs.iter_cycles, costs.iter_instructions)
    node = tree.root_handle()
    while not tree.is_leaf(node):
        keys = tree.keys_table(node)
        if keys.size == 0:
            child = 0
            yield _EMPTY_ROUTE
        else:
            low = 0
            size = keys.size
            while size // 2 > 0:
                half = size // 2
                probe = low + half
                yield Load(keys.address_of(probe), keys.element_size)
                yield iteration
                if keys.value_at(probe) <= value:
                    low = probe
                size -= half
            yield _FINAL_COMPARE
            child = low + 1 if keys.value_at(low) <= value else 0
        node = tree.child_of(node, child)
        if interleave:
            yield Prefetch(tree.node_address(node), tree.node_size)
            yield SUSPEND
    # Leaf: binary search whose comparisons go through the dictionary.
    # Each probe loads the stored code, then the entry it points at; the
    # last comparison re-checks the final ``low``.
    keys = tree.keys_table(node)
    if keys.size == 0:
        return INVALID_CODE
    element_size = dict_view.element_size
    low = 0
    size = keys.size
    while True:
        half = size // 2
        probe = low + half
        yield Load(tree.leaf_value_address(node, probe), element_size)
        code = tree.leaf_value(node, probe)
        address = dict_view.address_of(code)
        if interleave:
            yield Prefetch(address, element_size)
            yield SUSPEND
        yield Load(address, element_size)
        yield iteration
        probed_value = dict_view.value_at(code)
        if not half:
            break
        if probed_value <= value:
            low = probe
        size -= half
    yield _FINAL_COMPARE
    if probed_value == value:
        return code
    return INVALID_CODE
