"""Implicit CSB+-tree: gigabyte-scale trees without materialized nodes.

The paper's Delta experiments run CSB+-tree lookups over dictionaries up
to 2 GB (hundreds of millions of keys) — far beyond what a Python object
graph can hold. Because the benchmark keys are the integers ``0..n-1``
(Section 5.3), the tree a bulk-load would produce is fully determined by
arithmetic: this class computes node addresses, separator keys, and leaf
contents on demand, exposing the same :class:`~repro.indexes.csb_tree.
TreeInterface` the materialized tree implements, so Listing 6's traversal
(and the schedulers above it) run unchanged.

Layout: a left-full implicit F-ary tree. Leaves hold ``leaf_entries``
consecutive keys each (the last leaf may be partial); depth ``d`` holds
``ceil(n_leaves / F^(H-1-d))`` nodes stored contiguously, so the node at
``(depth, index)`` lives at a closed-form address. Node ``(d, i)`` covers
leaves ``[i * F^(H-1-d), min((i+1) * F^(H-1-d), n_leaves))`` and its
``j``-th child is node ``(d+1, i*F + j)``.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import IndexStructureError
from repro.indexes.csb_tree import NODE_HEADER_BYTES
from repro.sim.allocator import AddressSpaceAllocator

__all__ = ["ImplicitCSBTree"]


class _ImplicitKeysView:
    """Key array of one implicit node (inner separators or leaf keys)."""

    compare_extra = (0, 0)

    def __init__(self, base_addr: int, key_size: int, first: int, count: int,
                 stride: int, value_fn: Callable[[int], object]) -> None:
        self._base = base_addr
        self._key_size = key_size
        self._first = first  # entry index of keys[0]
        self._count = count
        self._stride = stride  # entries between consecutive keys
        self._value_fn = value_fn

    @property
    def size(self) -> int:
        return self._count

    @property
    def element_size(self) -> int:
        return self._key_size

    def address_of(self, index: int) -> int:
        return self._base + index * self._key_size

    def value_at(self, index: int):
        return self._value_fn(self._first + index * self._stride)


class ImplicitCSBTree:
    """Address-computed CSB+-tree over keys ``value_fn(0..n-1)``.

    ``code_fn`` maps an entry index to the value stored at the leaf (the
    Delta dictionary passes a pseudo-random permutation so that leaf hits
    point into an unsorted dictionary array).
    """

    def __init__(
        self,
        allocator: AddressSpaceAllocator,
        name: str,
        n_entries: int,
        *,
        node_size: int = 256,
        key_size: int = 4,
        value_size: int = 4,
        value_fn: Callable[[int], object] | None = None,
        code_fn: Callable[[int], object] | None = None,
    ) -> None:
        if n_entries <= 0:
            raise IndexStructureError("tree needs at least one entry")
        if node_size <= NODE_HEADER_BYTES + key_size:
            raise IndexStructureError("node size too small for any key")
        self.node_size = node_size
        self.key_size = key_size
        self.value_size = value_size
        self.n_entries = n_entries
        self._value_fn = value_fn or (lambda entry: entry)
        self._code_fn = code_fn or (lambda entry: entry)
        self.fanout = (node_size - NODE_HEADER_BYTES) // key_size
        self.leaf_entries = (node_size - NODE_HEADER_BYTES) // (key_size + value_size)
        if self.fanout < 2 or self.leaf_entries < 2:
            raise IndexStructureError("node size holds fewer than two entries")

        self.n_leaves = -(-n_entries // self.leaf_entries)
        height = 1
        span = 1  # leaves covered by one node at the root's depth
        while span < self.n_leaves:
            span *= self.fanout
            height += 1
        self.height = height
        #: nodes per depth, root first.
        self.width_at: list[int] = []
        #: leaves covered by one node at each depth.
        self.span_at: list[int] = []
        for depth in range(height):
            span = self.fanout ** (height - 1 - depth)
            self.span_at.append(span)
            self.width_at.append(-(-self.n_leaves // span))
        total_nodes = sum(self.width_at)
        self.region = allocator.allocate(name, total_nodes * node_size)
        self._depth_base: list[int] = []
        offset = 0
        for width in self.width_at:
            self._depth_base.append(self.region.base + offset)
            offset += width * node_size

    # ------------------------------------------------------------------
    # TreeInterface
    # ------------------------------------------------------------------

    def root_handle(self) -> tuple[int, int]:
        return (0, 0)

    def is_leaf(self, handle: tuple[int, int]) -> bool:
        return handle[0] == self.height - 1

    def node_address(self, handle: tuple[int, int]) -> int:
        depth, index = handle
        if not 0 <= index < self.width_at[depth]:
            raise IndexStructureError(f"no node {handle!r}")
        return self._depth_base[depth] + index * self.node_size

    def _n_children(self, depth: int, index: int) -> int:
        return min(
            self.fanout, self.width_at[depth + 1] - index * self.fanout
        )

    def _first_entry_of(self, depth: int, index: int) -> int:
        """Entry index of the smallest key under node (depth, index)."""
        return index * self.span_at[depth] * self.leaf_entries

    def keys_table(self, handle: tuple[int, int]) -> _ImplicitKeysView:
        depth, index = handle
        base = self.node_address(handle) + NODE_HEADER_BYTES
        if self.is_leaf(handle):
            first = index * self.leaf_entries
            count = min(self.leaf_entries, self.n_entries - first)
            return _ImplicitKeysView(
                base, self.key_size, first, count, 1, self._value_fn
            )
        # Inner: separators are the first entries of children 1..k-1.
        k = self._n_children(depth, index)
        child0 = index * self.fanout
        stride = self.span_at[depth + 1] * self.leaf_entries
        first = self._first_entry_of(depth + 1, child0 + 1) if k > 1 else 0
        return _ImplicitKeysView(
            base, self.key_size, first, max(0, k - 1), stride, self._value_fn
        )

    def child_of(self, handle: tuple[int, int], index: int) -> tuple[int, int]:
        depth, node_index = handle
        if self.is_leaf(handle):
            raise IndexStructureError("leaves have no children")
        if not 0 <= index < self._n_children(depth, node_index):
            raise IndexStructureError(f"child {index} out of range at {handle!r}")
        return (depth + 1, node_index * self.fanout + index)

    def leaf_value(self, handle: tuple[int, int], position: int):
        depth, index = handle
        entry = index * self.leaf_entries + position
        if not self.is_leaf(handle) or not 0 <= entry < self.n_entries:
            raise IndexStructureError(f"no leaf entry {position} at {handle!r}")
        return self._code_fn(entry)

    def leaf_value_address(self, handle: tuple[int, int], position: int) -> int:
        # Values follow the leaf's keys: count them as keys_table does.
        first = handle[1] * self.leaf_entries
        n_keys = min(self.leaf_entries, self.n_entries - first)
        return (
            self.node_address(handle)
            + NODE_HEADER_BYTES
            + n_keys * self.key_size
            + position * self.value_size
        )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        return self.region.size

    def search(self, value) -> object:
        """Pure-Python exact lookup (oracle for tests)."""
        from repro.indexes.base import INVALID_CODE

        node = self.root_handle()
        while not self.is_leaf(node):
            keys = self.keys_table(node)
            child = 0
            for j in range(keys.size):
                if keys.value_at(j) <= value:
                    child = j + 1
                else:
                    break
            node = self.child_of(node, child)
        keys = self.keys_table(node)
        low = 0
        for j in range(keys.size):
            if keys.value_at(j) <= value:
                low = j
        if keys.size and keys.value_at(low) == value:
            return self.leaf_value(node, low)
        return INVALID_CODE
