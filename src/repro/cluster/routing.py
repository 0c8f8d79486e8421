"""Consistent-hash key routing with R-way replication.

The ring is the classic construction: every node projects ``n_vnodes``
virtual points onto a 64-bit circle, and a key's *preference list* is
the distinct nodes met walking clockwise from the key's own point. The
first R entries are the key's replica set; when nodes die, the list is
re-read skipping dead nodes — so a crash moves **only the crashed
node's keys**, each to the next live node already in its preference
order, and every other key keeps its placement. That minimal-movement
property is the whole reason to hash consistently, and it is pinned by
``tests/cluster/test_routing.py``.

Hashing uses :func:`hashlib.blake2b` (8-byte digests), never the
built-in ``hash()`` — Python salts string hashes per process
(``PYTHONHASHSEED``), and routing must be a pure function of the key so
same-seed runs are bit-identical across processes and machines.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Container, Iterable, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "HashRing",
    "ClusterRouter",
    "first_live",
]


def _point(token: str) -> int:
    """Map a token onto the 64-bit ring (process-independent)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def first_live(prefs: Sequence[int], alive: Container[int] | None) -> int:
    """A key's primary node: the first live entry of its preference list.

    ``alive`` of ``None`` (or with no member in ``prefs``) means no
    liveness constraint, and the first entry is the primary.
    """
    if alive is not None:
        for node in prefs:
            if node in alive:
                return node
    return prefs[0]


class HashRing:
    """A consistent-hash ring over ``n_nodes`` with virtual nodes."""

    def __init__(self, n_nodes: int, *, n_vnodes: int = 64) -> None:
        if n_nodes < 1:
            raise ConfigurationError("a hash ring needs at least one node")
        if n_vnodes < 1:
            raise ConfigurationError("each node needs at least one vnode")
        self.n_nodes = n_nodes
        self.n_vnodes = n_vnodes
        points: list[tuple[int, int]] = []
        for node in range(n_nodes):
            for vnode in range(n_vnodes):
                points.append((_point(f"node{node}/v{vnode}"), node))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [n for _, n in points]
        #: key -> full preference list, memoised (keys repeat heavily).
        self._prefs: dict[int, tuple[int, ...]] = {}

    def preference(self, key: int) -> tuple[int, ...]:
        """Every node, in ring order from ``key``'s point (memoised)."""
        cached = self._prefs.get(key)
        if cached is not None:
            return cached
        start = bisect.bisect_right(self._points, _point(f"key{key}"))
        seen: list[int] = []
        n_points = len(self._points)
        for offset in range(n_points):
            owner = self._owners[(start + offset) % n_points]
            if owner not in seen:
                seen.append(owner)
                if len(seen) == self.n_nodes:
                    break
        prefs = tuple(seen)
        self._prefs[key] = prefs
        return prefs

    def replicas(
        self, key: int, r: int, *, alive: Iterable[int] | None = None
    ) -> tuple[int, ...]:
        """The R nodes holding ``key``, preferring live ones.

        Live nodes are taken in preference order first; if fewer than
        ``r`` are alive, dead holders pad the tail (the router still
        knows where the data *is*, it just cannot reach it). With every
        node alive this is exactly the first R entries of the
        preference list.
        """
        if not 1 <= r <= self.n_nodes:
            raise ConfigurationError(
                f"replication {r} outside [1, {self.n_nodes}]"
            )
        prefs = self.preference(key)
        if alive is None:
            return prefs[:r]
        live = set(alive)
        chosen = [node for node in prefs if node in live][:r]
        if len(chosen) < r:
            chosen.extend(
                node for node in prefs if node not in live
            )
        return tuple(chosen[:r])


class ClusterRouter:
    """Routes keys — and whole coalesced batches — onto ring nodes."""

    def __init__(self, ring: HashRing, replication: int) -> None:
        if not 1 <= replication <= ring.n_nodes:
            raise ConfigurationError(
                f"replication {replication} outside [1, {ring.n_nodes}]"
            )
        self.ring = ring
        self.replication = replication

    def replicas(
        self, key: int, *, alive: Iterable[int] | None = None
    ) -> tuple[int, ...]:
        """The key's replica set, live nodes first."""
        return self.ring.replicas(key, self.replication, alive=alive)

    def primary(self, key: int, *, alive: Container[int] | None = None) -> int:
        """The node a probe for ``key`` is sent to first."""
        return first_live(self.ring.preference(key), alive)

    def split(
        self, keys: Sequence[int], *, alive: Iterable[int] | None = None
    ) -> dict[int, list[int]]:
        """Split a batch's key positions by primary node.

        Returns ``{node: [position, ...]}`` over positions into
        ``keys``, in ascending node order — the deterministic dispatch
        order the cluster server walks.
        """
        alive_set = set(alive) if alive is not None else None
        groups: dict[int, list[int]] = {}
        for position, key in enumerate(keys):
            node = self.primary(key, alive=alive_set)
            groups.setdefault(node, []).append(position)
        return dict(sorted(groups.items()))
