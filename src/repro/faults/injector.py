"""The fault injector: schedule in, per-cycle chaos answers out.

:class:`FaultInjector` turns a :class:`~repro.faults.schedule.
FaultSchedule` into the two things a driver needs:

* **stateless window queries** — "is shard *s* up at cycle *t*", "how
  much extra DRAM latency applies", "how many line-fill buffers are
  left", "does a crash land inside this execution window". These are
  pure interval arithmetic over the (sorted, immutable) schedule, so
  asking twice — or replaying the whole run — gives the same answers.
* **a point-fault cursor** — cache flushes mutate simulator state and
  must be applied exactly once, in time order. The event loop races
  :meth:`next_pending_at` against its other timers and calls
  :meth:`apply_pending` when simulated time passes a flush.

:class:`OfflineFaultInjector` adapts the same machinery to a single
engine running a bulk (non-serving) workload, where the engine clock
itself is the fault-time domain — this powers ``repro.api.
inject_faults``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.faults.events import FaultEvent, ShardCrash
from repro.faults.schedule import FaultSchedule

__all__ = ["FaultEnv", "FaultInjector", "OfflineFaultInjector"]

#: Window kinds during which a shard cannot start new work.
_DOWN_KINDS = ("shard_stall", "shard_crash")


@dataclass(frozen=True)
class FaultEnv:
    """The degraded memory environment of one shard at one cycle."""

    extra_latency: int = 0
    lfb_capacity: int | None = None

    def __bool__(self) -> bool:
        return bool(self.extra_latency) or self.lfb_capacity is not None


class FaultInjector:
    """Evaluates one schedule against a set of shard memory systems.

    ``node_l3s`` lists each node's shared LLC; the shards split evenly
    over the nodes in order (node ``i`` hosts the ``i``-th run of
    ``n_shards // len(node_l3s)`` shards), which is what an LLC flush
    aimed at one shard needs to find its cache.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        memories,
        *,
        node_l3s=(),
    ) -> None:
        if not memories:
            raise ConfigurationError("fault injector needs at least one shard")
        self.schedule = schedule
        self._memories = list(memories)
        self.n_shards = len(self._memories)
        self._node_l3s = list(node_l3s)
        self._shards_per_node = self.n_shards // max(1, len(self._node_l3s))
        self._windows = [
            schedule.windows_for(shard) for shard in range(self.n_shards)
        ]
        self._points = [e for e in schedule.events if not e.is_window]
        self._cursor = 0
        #: Point faults applied so far (flush bookkeeping for reports).
        self.flushes_applied = 0

    # ------------------------------------------------------------------
    # Stateless window queries
    # ------------------------------------------------------------------

    def available_from(self, shard: int, at: int) -> int:
        """Earliest cycle >= ``at`` at which ``shard`` may start a batch.

        Walks stall/crash windows in time order; chained or overlapping
        outages compose (the single pass works because windows are
        sorted by start cycle).
        """
        t = at
        for event in self._windows[shard]:
            if event.kind in _DOWN_KINDS and event.at <= t < event.until:
                t = event.until
        return t

    def all_shards_down_at(self, at: int) -> bool:
        """Whether no shard can start work at cycle ``at`` (fallback cue)."""
        return all(
            self.available_from(shard, at) > at for shard in range(self.n_shards)
        )

    def extra_latency_at(self, shard: int, at: int) -> int:
        """Added DRAM cycles from spike windows active at ``at``."""
        return sum(
            e.extra_latency
            for e in self._windows[shard]
            if e.kind == "latency_spike" and e.active_at(at)
        )

    def lfb_capacity_at(self, shard: int, at: int) -> int | None:
        """Shrunken LFB pool size at ``at`` (``None`` = architectural)."""
        capacities = [
            e.capacity
            for e in self._windows[shard]
            if e.kind == "lfb_shrink" and e.active_at(at)
        ]
        return min(capacities) if capacities else None

    def environment(self, shard: int, at: int) -> FaultEnv:
        """Degraded-memory snapshot for a batch dispatched at ``at``.

        Window effects are sampled once, at dispatch time: the batch
        executes under the environment it started in. That keeps batch
        execution a pure function of (state at start), which is what
        makes replays bit-identical.
        """
        return FaultEnv(
            extra_latency=self.extra_latency_at(shard, at),
            lfb_capacity=self.lfb_capacity_at(shard, at),
        )

    def window_kinds_between(self, shard: int, start: int, end: int) -> tuple:
        """Kinds of fault windows overlapping ``[start, end)`` on a shard.

        Purely an annotation query (request tracing tags each dispatch
        attempt with the chaos it executed under); deduplicated, in
        schedule order, never consulted by the simulation itself.
        """
        kinds: list[str] = []
        for event in self._windows[shard]:
            if event.at < end and event.until > start and event.kind not in kinds:
                kinds.append(event.kind)
        return tuple(kinds)

    def crash_between(self, shard: int, start: int, end: int) -> ShardCrash | None:
        """First crash hitting ``shard`` strictly inside ``(start, end)``.

        A crash at the start cycle hasn't happened yet when the batch
        launches (the availability check already consumed it); one at or
        past ``end`` misses the batch entirely.
        """
        for event in self._windows[shard]:
            if event.kind == "shard_crash" and start < event.at < end:
                return event
        return None

    # ------------------------------------------------------------------
    # Point-fault cursor
    # ------------------------------------------------------------------

    def next_pending_at(self) -> int | None:
        """Cycle stamp of the next unapplied point fault, if any."""
        if self._cursor >= len(self._points):
            return None
        return self._points[self._cursor].at

    def apply_pending(self, now: int) -> list[FaultEvent]:
        """Apply every point fault stamped at or before ``now``, in order."""
        applied: list[FaultEvent] = []
        while self._cursor < len(self._points):
            event = self._points[self._cursor]
            if event.at > now:
                break
            self._cursor += 1
            self._apply_point(event)
            applied.append(event)
        return applied

    def _apply_point(self, event: FaultEvent) -> None:
        if event.kind != "cache_flush":  # pragma: no cover - future kinds
            raise ConfigurationError(f"cannot apply point fault {event.kind!r}")
        for shard, memory in enumerate(self._memories):
            if event.targets(shard):
                memory.flush_private()
        if getattr(event, "llc", False):
            for node, l3 in enumerate(self._node_l3s):
                if event.shard is None or event.shard // self._shards_per_node == node:
                    l3.flush()
        self.flushes_applied += 1

    # ------------------------------------------------------------------
    # Environment application
    # ------------------------------------------------------------------

    @contextmanager
    def applied(self, shard: int, at: int):
        """Run a batch under the shard's degraded environment at ``at``.

        Mutates the shard's memory system for the duration of the body
        and restores it exactly afterwards — the single place fault
        windows touch simulator state.
        """
        env = self.environment(shard, at)
        if not env:
            yield env
            return
        memory = self._memories[shard]
        base_latency = memory.extra_dram_latency
        base_capacity = memory.lfbs.capacity
        memory.extra_dram_latency = base_latency + env.extra_latency
        if env.lfb_capacity is not None:
            memory.lfbs.set_capacity(min(base_capacity, env.lfb_capacity))
        try:
            yield env
        finally:
            memory.extra_dram_latency = base_latency
            memory.lfbs.set_capacity(base_capacity)


class OfflineFaultInjector:
    """Replay a schedule against one engine's bulk run.

    For offline (non-serving) execution the engine clock is the only
    clock, so shard 0 *is* the machine: outage windows are charged as
    fault stalls via :meth:`~repro.sim.engine.ExecutionEngine.
    charge_fault`, flushes land between chunks, and spike/shrink
    windows wrap each chunk's execution.
    """

    def __init__(self, schedule: FaultSchedule, engine) -> None:
        self.engine = engine
        self.injector = FaultInjector(
            schedule, [engine.memory], node_l3s=[engine.memory.l3]
        )
        #: Cycles spent stalled in outage windows.
        self.stall_cycles = 0

    @contextmanager
    def chunk(self):
        """Guard one chunk of work: apply due faults, then degrade."""
        now = self.engine.clock
        self.injector.apply_pending(now)
        available = self.injector.available_from(0, now)
        if available > now:
            self.engine.charge_fault(available - now, "fault outage")
            self.stall_cycles += available - now
        with self.injector.applied(0, self.engine.clock) as env:
            yield env

    @property
    def flushes_applied(self) -> int:
        return self.injector.flushes_applied
