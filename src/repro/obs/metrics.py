"""Unified metrics registry: counters, gauges, and cycle histograms.

One :class:`MetricsRegistry` per :class:`~repro.sim.engine.ExecutionEngine`
holds every observable number the simulator produces. Components either
create instruments directly (``registry.counter("sched.switches")``) or
register a *source* — a callable returning a dict — which adapts the
existing stats dataclasses (:class:`~repro.sim.tmam.TmamStats`,
:class:`~repro.sim.memory.MemoryStats`, cache / TLB / LFB counters)
without duplicating their storage.

Names are dotted paths; :meth:`MetricsRegistry.snapshot` folds them into
one nested dict, e.g.::

    {"tmam": {"cycles": 812, "slots": {"Memory": 2044.0, ...}},
     "memory": {"loads_by_level": {"L1": 37, ...}},
     "cache": {"L1D": {"hits": 41, ...}}, ...}

The reporting layer renders tables straight from this snapshot, and the
run-summary exporter serialises it verbatim — so the ASCII tables and
the machine-readable artifacts can never disagree.
"""

from __future__ import annotations

import weakref
from typing import Callable, Mapping

from repro.errors import SimulationError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise SimulationError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A value that can move both ways (e.g. LFB occupancy)."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value


class Histogram:
    """Cycle-latency histogram with power-of-two buckets.

    Bucket ``i`` counts observations in ``[2**(i-1), 2**i)`` (bucket 0
    counts zeros and ones) — coarse enough to be cheap, fine enough to
    separate L1 hits from DRAM round trips.
    """

    __slots__ = ("name", "buckets", "count", "total", "min", "max")

    N_BUCKETS = 16

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets = [0] * self.N_BUCKETS
        self.count = 0
        self.total = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        if value < 0:
            raise SimulationError(f"histogram {self.name}: negative observation")
        index = 0 if value < 2 else min(int(value).bit_length(), self.N_BUCKETS - 1)
        self.buckets[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": list(self.buckets),
        }


#: A source callable: returns a (possibly nested) dict of plain numbers.
Source = Callable[[], Mapping]


class MetricsRegistry:
    """Named instruments plus adapted stat sources, snapshot as one tree."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._sources: dict[str, Source] = {}

    # ------------------------------------------------------------------
    # Instrument creation (idempotent per name)
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self._instrument(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._instrument(name, Histogram)

    def _instrument(self, name: str, cls):
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise SimulationError(
                    f"metric {name!r} already registered as {type(existing).__name__}"
                )
            return existing
        if name in self._sources:
            raise SimulationError(f"metric {name!r} shadows a registered source")
        instrument = cls(name)
        self._instruments[name] = instrument
        return instrument

    # ------------------------------------------------------------------
    # Source registration (adapters over existing stats objects)
    # ------------------------------------------------------------------

    def register_source(self, name: str, source: Source) -> None:
        """Mount ``source()``'s dict at dotted path ``name`` in snapshots.

        Re-registering a name replaces the source — a fresh engine
        measuring over a shared, pre-warmed memory system re-mounts that
        memory's stats under its own registry. A
        :class:`weakref.WeakMethod` source does not keep its owner alive;
        once the owner is collected the source drops out of snapshots.
        """
        if name in self._instruments:
            raise SimulationError(f"source {name!r} shadows a registered metric")
        self._sources[name] = source

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """One nested dict of every instrument and source, by dotted path."""
        tree: dict = {}
        for name, instrument in self._instruments.items():
            if isinstance(instrument, Counter):
                value: object = instrument.value
            elif isinstance(instrument, Gauge):
                value = {"value": instrument.value, "peak": instrument.peak}
            else:
                value = instrument.as_dict()
            _mount(tree, name, value)
        for name, source in self._sources.items():
            if isinstance(source, weakref.WeakMethod):
                source = source()
                if source is None:
                    continue
            _mount(tree, name, _plain(source()))
        return tree

    def names(self) -> list[str]:
        """Every registered dotted path (instruments and sources)."""
        return sorted(list(self._instruments) + list(self._sources))


def _mount(tree: dict, dotted: str, value: object) -> None:
    parts = dotted.split(".")
    node = tree
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise SimulationError(f"metric path {dotted!r} collides with a leaf")
    leaf = parts[-1]
    if isinstance(value, dict) and isinstance(node.get(leaf), dict):
        node[leaf].update(value)
    else:
        node[leaf] = value


def _plain(value: object) -> object:
    """Deep-copy mappings into plain dicts (snapshots must not alias)."""
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value
