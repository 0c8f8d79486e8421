"""The fault injector: schedule in, per-cycle chaos answers out.

:class:`FaultInjector` turns a :class:`~repro.faults.schedule.
FaultSchedule` into the two things a driver needs:

* **stateless window queries** — "is shard *s* up at cycle *t*", "how
  much extra DRAM latency applies", "how many line-fill buffers are
  left", "does a crash land inside this execution window". These are
  pure interval arithmetic over the (sorted, immutable) schedule, so
  asking twice — or replaying the whole run — gives the same answers.
  Construction indexes each shard's windows once (merged outages, a
  piecewise-constant memory environment, crash start cycles), so every
  query is one bisect however dense the schedule.
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

import heapq
from bisect import bisect_right
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


#: The environment outside every spike and shrink window.
_CLEAN = FaultEnv()


class _ShardIndex:
    """One shard's windows, indexed for single-bisect queries.

    * ``down_starts``/``down_ends`` — stall and crash windows merged into
      disjoint outages (touching windows merge too, because leaving one
      outage straight into the next is still being down);
    * ``env_starts``/``envs`` — the spike sum and minimum shrink
      capacity as a step function: ``envs[i]`` holds on
      ``[env_starts[i], env_starts[i + 1])``;
    * ``crash_ats``/``crashes`` — crash windows in schedule order.
    """

    __slots__ = (
        "down_starts", "down_ends", "env_starts", "envs", "crash_ats", "crashes"
    )

    def __init__(self, windows) -> None:
        self.down_starts: list[int] = []
        self.down_ends: list[int] = []
        for event in windows:  # start-sorted, so one merge pass suffices
            if event.kind not in _DOWN_KINDS:
                continue
            if self.down_ends and event.at <= self.down_ends[-1]:
                self.down_ends[-1] = max(self.down_ends[-1], event.until)
            else:
                self.down_starts.append(event.at)
                self.down_ends.append(event.until)
        self.crashes = [e for e in windows if e.kind == "shard_crash"]
        self.crash_ats = [e.at for e in self.crashes]
        self.env_starts, self.envs = _environment_steps(windows)


def _environment_steps(windows) -> tuple[list[int], list[FaultEnv]]:
    """Sweep spike and shrink edges into a step function of FaultEnvs.

    One sort of the edges plus a lazily-pruned min-heap of active
    capacities: O(W log W) for W windows.
    """
    edges: dict[int, list[tuple[str, int, int]]] = {}
    for event in windows:
        if event.kind == "latency_spike":
            value = event.extra_latency
        elif event.kind == "lfb_shrink":
            value = event.capacity
        else:
            continue
        edges.setdefault(event.at, []).append((event.kind, value, 1))
        edges.setdefault(event.until, []).append((event.kind, value, -1))
    starts: list[int] = []
    envs: list[FaultEnv] = []
    extra = 0
    active: dict[int, int] = {}
    heap: list[int] = []
    previous = _CLEAN
    for cycle in sorted(edges):
        for kind, value, sign in edges[cycle]:
            if kind == "latency_spike":
                extra += sign * value
            else:
                active[value] = active.get(value, 0) + sign
                if sign > 0 and active[value] == 1:
                    heapq.heappush(heap, value)
        while heap and not active[heap[0]]:
            heapq.heappop(heap)
        env = FaultEnv(extra, heap[0] if heap else None)
        if env != previous:
            starts.append(cycle)
            envs.append(env)
            previous = env
    return starts, envs


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
        self._index = [_ShardIndex(windows) for windows in self._windows]
        self._points = [e for e in schedule.events if not e.is_window]
        self._cursor = 0
        #: Point faults applied so far (flush bookkeeping for reports).
        self.flushes_applied = 0

    # ------------------------------------------------------------------
    # Stateless window queries
    # ------------------------------------------------------------------

    def available_from(self, shard: int, at: int) -> int:
        """Earliest cycle >= ``at`` at which ``shard`` may start a batch.

        Chained or overlapping outages compose: ``at`` inside a merged
        outage moves to its end.
        """
        index = self._index[shard]
        i = bisect_right(index.down_starts, at) - 1
        if i >= 0 and at < index.down_ends[i]:
            return index.down_ends[i]
        return at

    def all_shards_down_at(self, at: int) -> bool:
        """Whether no shard can start work at cycle ``at`` (fallback cue)."""
        for index in self._index:
            i = bisect_right(index.down_starts, at) - 1
            if i < 0 or at >= index.down_ends[i]:
                return False
        return True

    def extra_latency_at(self, shard: int, at: int) -> int:
        """Added DRAM cycles from spike windows active at ``at``."""
        return self._environment(shard, at).extra_latency

    def lfb_capacity_at(self, shard: int, at: int) -> int | None:
        """Shrunken LFB pool size at ``at`` (``None`` = architectural)."""
        return self._environment(shard, at).lfb_capacity

    def environment(self, shard: int, at: int) -> FaultEnv:
        """Degraded-memory snapshot for a batch dispatched at ``at``.

        Window effects are sampled once, at dispatch time: the batch
        executes under the environment it started in. That keeps batch
        execution a pure function of (state at start), which is what
        makes replays bit-identical.
        """
        return self._environment(shard, at)

    def _environment(self, shard: int, at: int) -> FaultEnv:
        index = self._index[shard]
        i = bisect_right(index.env_starts, at) - 1
        return index.envs[i] if i >= 0 else _CLEAN

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
        past ``end`` misses the batch entirely. Of several crashes at one
        cycle, the first in schedule order is the one returned.
        """
        index = self._index[shard]
        i = bisect_right(index.crash_ats, start)
        if i < len(index.crash_ats) and index.crash_ats[i] < end:
            return index.crashes[i]
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
    def applied(self, shard: int, at: int, env: FaultEnv | None = None):
        """Run a batch under the shard's degraded environment at ``at``.

        Mutates the shard's memory system for the duration of the body
        and restores it exactly afterwards — the single place fault
        windows touch simulator state. ``env`` passes in the
        environment the caller already sampled for ``(shard, at)``.
        """
        if env is None:
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
