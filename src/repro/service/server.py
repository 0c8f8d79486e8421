"""The simulated-time online server: arrivals → admission → batches → shards.

:class:`ServiceServer` runs a discrete-event simulation over the same
cycle domain as the execution engine. Requests arrive via an
:class:`~repro.service.arrivals.ArrivalProcess`; the
:class:`~repro.service.admission.AdmissionController` bounds the waiting
room; the :class:`~repro.service.coalescer.Coalescer` forms groups; each
group dispatches through the executor registry onto the least-loaded of
a node's ``n_shards`` engine shards (private L1/L2/TLB, shared LLC — one
:class:`~repro.sim.multicore.MultiCoreSystem` per node). The executor
charges exactly the cycles the offline bulk path charges, so the
serving layer's latency numbers sit on the same calibrated cost model
as every figure in the repo.

Event loop invariant: simulated time advances to the earliest of the
next arrival, the next due retry, the next pending point fault, and the
next feasible dispatch (batch trigger *and* an available shard);
arrivals at or before any other event are admitted first so they can
still join the batch. Shed requests (overload policy ``"shed"``) run
ungrouped on a dedicated sequential overflow engine.

**Nodes.** A single-node server is the ``n_nodes == 1`` case of one
fleet. With several nodes, each node is its own memory domain (private
DRAM and LLC), stitched together by a :class:`~repro.cluster.topology.
ClusterTopology` interconnect and a consistent-hash
:class:`~repro.cluster.routing.ClusterRouter`: each coalesced batch
splits by the *primary replica* of every probe key (against the nodes
alive at the batch trigger), and each per-node group dispatches onto
that node's least-loaded shard. An answer served away from its
request's home node charges the topology's tier cost on the way back —
execution cycles from the request's point of view, so the latency
anatomy (``queue_wait + batch_wait + execution == latency``) holds.
Hedges target the batch's other replica nodes; node-scope faults are
lowered onto the node's shard range. With one node the whole batch is
the one group: no router call, no queue peek. Per-node batch and
completion counters and interconnect crossings live in a ``cluster.*``
metrics namespace beside the ``service.*`` tree the reports read.

**Fault injection** (optional, via a :class:`~repro.faults.schedule.
FaultSchedule`): stall/crash windows delay dispatch; a crash landing
inside a batch's execution window fails it — members re-enter the queue
through bounded retry with exponential backoff and deterministic jitter
(drawn from the schedule's private RNG), or fail outright once their
budget is spent. Latency spikes and LFB shrinkage degrade the memory
environment a batch executes under; cache flushes land between events.
Resilience responses — per-request deadlines, hedged dispatch to a
second shard, adaptive Inequality-1 group-size degradation, overflow-
lane fallback — are all off by default, so a no-fault run is
bit-identical to a server that predates this machinery.

Everything observable lands in a :class:`~repro.obs.metrics.
MetricsRegistry`: admission counters, queue-depth gauge, per-phase
latency histograms (``service.latency.*``), and — only when chaos is
actually exercised — fault/retry/hedge counters (``service.faults.*``,
``service.retries``, ...). The :class:`ServiceReport` adds exact
percentiles (nearest-rank over the full latency list) and SLO
attainment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.routing import ClusterRouter, HashRing, first_live
from repro.cluster.topology import INTERCONNECT_TIERS, ClusterTopology
from repro.config import HASWELL, ArchSpec
from repro.control import AdaptiveController, ControllerConfig
from repro.errors import ConfigurationError, SimulationError
from repro.faults.events import (
    FAULT_KINDS,
    LatencySpike,
    NodeCrash,
    NodeSlow,
    ShardCrash,
)
from repro.faults.injector import FaultEnv, FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.interleaving.executor import BulkLookup, get_executor
from repro.interleaving.policies import degraded_group_size
from repro.obs.hist import ExemplarHistogram, nearest_rank
from repro.obs.metrics import MetricsRegistry
from repro.obs.rtrace import NULL_REQUEST_TRACER
from repro.obs.slo import burn_analysis
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.arrivals import ArrivalProcess
from repro.service.coalescer import Coalescer
from repro.service.request import Request
from repro.sim.engine import ExecutionEngine
from repro.sim.multicore import MultiCoreSystem

__all__ = [
    "PERCENTILES",
    "RESILIENCE_KEYS",
    "ServiceConfig",
    "ServiceReport",
    "ServiceServer",
]

#: The SLO percentiles every report carries.
PERCENTILES = (50, 95, 99)

#: Resilience counters a report zero-fills (present only when exercised).
RESILIENCE_KEYS = (
    "timeouts",
    "retries",
    "failed",
    "hedges",
    "hedge_wins",
    "batch_failures",
    "degraded_batches",
    "fallback_batches",
    "outage_delays",
)

#: Degradation policies :attr:`ServiceConfig.degradation` accepts.
DEGRADATION_POLICIES = ("off", "adaptive")

#: Request shapes :attr:`ServiceConfig.request_kind` accepts. ``"lookup"``
#: runs each batch as a raw bulk lookup (the historic path, byte-stable);
#: ``"plan"`` runs it as a ``repro.query`` index-join plan — the batch's
#: values become the outer side of a streaming join against the served
#: table, probed through the same configured executor.
REQUEST_KINDS = ("lookup", "plan")


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning of one serving run (technique, batching, admission, SLO)."""

    technique: str = "CORO"
    #: ``None`` -> the executor's paper default (Section 5.4.5).
    group_size: int | None = None
    max_batch: int = 32
    max_wait_cycles: int = 4000
    queue_capacity: int = 256
    overload_policy: str = "reject"
    #: Token-bucket refill rate; ``None`` disables rate limiting.
    rate_limit_per_kcycle: float | None = None
    rate_limit_burst: int = 32
    #: Engine shards per node.
    n_shards: int = 2
    #: Per-shard untimed lookups before serving starts (warm caches).
    warmup_requests: int = 32
    #: End-to-end latency SLO in cycles; ``None`` skips attainment.
    slo_cycles: int | None = None
    #: Fraction of requests the SLO promises within ``slo_cycles``; the
    #: error budget ``1 - slo_target`` is what burn rates are measured
    #: against (see :mod:`repro.obs.slo`).
    slo_target: float = 0.99
    #: Per-request deadline enforced at dispatch; ``None`` disables.
    timeout_cycles: int | None = None
    #: Crash-retry budget per request (0 = a crash fails the request).
    max_retries: int = 0
    #: Base retry backoff in cycles; doubles with each attempt, plus
    #: deterministic jitter from the fault schedule's private RNG.
    retry_backoff_cycles: int = 2000
    #: Duplicate a batch onto a second shard once it has waited this
    #: long past its trigger; ``None`` disables hedging.
    hedge_after_cycles: int | None = None
    #: ``"adaptive"`` re-evaluates Inequality 1 under the active fault
    #: environment before each dispatch; ``"off"`` keeps the configured
    #: group size regardless.
    degradation: str = "off"
    #: When every shard is fault-stalled past the overflow lane's
    #: availability, serve the batch there (sequential, ungrouped).
    overflow_fallback: bool = False
    #: Shape of each dispatched batch: ``"lookup"`` (raw bulk lookups,
    #: the historic byte-stable path) or ``"plan"`` (a ``repro.query``
    #: streaming index-join plan per batch).
    request_kind: str = "lookup"
    #: Attach a :class:`~repro.control.ControllerConfig` to run the
    #: adaptive control plane; ``None`` (the default) keeps the server
    #: bit-identical to the pre-control code path.
    controller: ControllerConfig | None = None
    #: Nodes in the fleet, each its own memory domain of ``n_shards``
    #: shards; 1 = one machine, no routing and no interconnect.
    n_nodes: int = 1
    #: Replicas per key on the consistent-hash ring (at most ``n_nodes``).
    replication: int = 1

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError("server needs at least one shard")
        if self.n_nodes < 1:
            raise ConfigurationError("a cluster needs at least one node")
        if not 1 <= self.replication <= self.n_nodes:
            raise ConfigurationError(
                f"replication {self.replication} outside [1, {self.n_nodes}]"
            )
        if self.warmup_requests < 0:
            raise ConfigurationError("warmup_requests cannot be negative")
        if not 0.0 < self.slo_target < 1.0:
            raise ConfigurationError("slo_target must lie strictly in (0, 1)")
        if self.timeout_cycles is not None and self.timeout_cycles <= 0:
            raise ConfigurationError("timeout_cycles must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries cannot be negative")
        if self.retry_backoff_cycles < 0:
            raise ConfigurationError("retry_backoff_cycles cannot be negative")
        if self.hedge_after_cycles is not None and self.hedge_after_cycles < 0:
            raise ConfigurationError("hedge_after_cycles cannot be negative")
        if self.degradation not in DEGRADATION_POLICIES:
            raise ConfigurationError(
                f"unknown degradation policy {self.degradation!r}; expected "
                f"one of {DEGRADATION_POLICIES}"
            )
        if self.request_kind not in REQUEST_KINDS:
            raise ConfigurationError(
                f"unknown request kind {self.request_kind!r}; expected "
                f"one of {REQUEST_KINDS}"
            )
        if self.controller is not None and not isinstance(
            self.controller, ControllerConfig
        ):
            raise ConfigurationError(
                "controller must be a ControllerConfig (or None)"
            )


@dataclass
class ServiceReport:
    """Everything one serving run measured."""

    technique: str
    config: ServiceConfig
    requests: list[Request]
    makespan: int
    metrics: MetricsRegistry
    #: End-to-end latency histogram of answered requests, each bucket
    #: keeping its worst request's trace id (see repro.obs.hist).
    exemplars: ExemplarHistogram | None = None
    #: Per-lane execution-cycle histograms ("shard0".., "overflow").
    shard_exemplars: dict[str, ExemplarHistogram] = field(default_factory=dict)
    #: The control plane's decision stream (``None`` = no controller).
    control: dict | None = None
    #: Ascending end-to-end latencies of batch-completed requests.
    latencies: list[int] = field(init=False)
    #: Ascending end-to-end latencies of shed (overflow-lane) requests.
    shed_latencies: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.latencies = sorted(
            r.latency for r in self.requests if r.outcome == "completed"
        )
        self.shed_latencies = sorted(
            r.latency for r in self.requests if r.outcome == "shed" and r.finished
        )

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def served(self) -> int:
        """Requests that got an answer (batched + shed lane)."""
        return self.completed + len(self.shed_latencies)

    @property
    def throughput_per_kcycle(self) -> float:
        """Answered requests per kilocycle of simulated wall time."""
        return self.served * 1000.0 / self.makespan if self.makespan else 0.0

    @property
    def offered_per_kcycle(self) -> float:
        """Arrivals per kilocycle actually seen by the front door."""
        arrivals = self.counters["arrivals"]
        return arrivals * 1000.0 / self.makespan if self.makespan else 0.0

    @property
    def counters(self) -> dict:
        tree = self.metrics.snapshot()["service"]
        return {
            key: tree[key]
            for key in (
                "arrivals",
                "admitted",
                "rejected",
                "rate_limited",
                "dropped",
                "shed",
                "completed",
                "batches",
            )
        }

    @property
    def resilience(self) -> dict:
        """Fault/retry/hedge counters, zero-filled for absent keys.

        Lazily created (a counter exists only once its event happened),
        so this view normalises across runs with different chaos.
        """
        tree = self.metrics.snapshot()["service"]
        summary = {key: int(tree.get(key, 0)) for key in RESILIENCE_KEYS}
        faults = tree.get("faults", {})
        summary["faults"] = {
            kind: int(faults.get(kind, 0)) for kind in FAULT_KINDS
        }
        return summary

    @property
    def peak_queue_depth(self) -> int:
        return int(self.metrics.snapshot()["service"]["queue_depth"]["peak"])

    def latency_percentiles(self) -> dict[str, int]:
        return {f"p{q}": int(nearest_rank(self.latencies, q)) for q in PERCENTILES}

    def mean_decomposition(self) -> dict[str, float]:
        """Mean cycles per completed request, by serving phase."""
        done = [r for r in self.requests if r.outcome == "completed"]
        n = len(done) or 1
        return {
            "queue_wait": sum(r.queue_wait for r in done) / n,
            "batch_wait": sum(r.batch_wait for r in done) / n,
            "execution": sum(r.execution_cycles for r in done) / n,
        }

    @property
    def slo_attainment(self) -> float | None:
        """Fraction of answered requests within the SLO (``None`` = no SLO)."""
        slo = self.config.slo_cycles
        if slo is None:
            return None
        if not self.served:
            return 0.0
        within = sum(1 for v in self.latencies if v <= slo)
        within += sum(1 for v in self.shed_latencies if v <= slo)
        return within / self.served

    def mean_batch_size(self) -> float:
        batches = self.counters["batches"]
        return self.completed / batches if batches else 0.0

    # ------------------------------------------------------------------
    # Per-node accounting (the ``cluster.*`` metrics namespace)
    # ------------------------------------------------------------------

    def _cluster_tree(self) -> dict:
        return self.metrics.snapshot().get("cluster", {})

    def _per_lane(self, counter: str) -> dict[str, int]:
        tree = self._cluster_tree()
        lanes = [f"node{node}" for node in range(self.config.n_nodes)]
        return {
            lane: int(tree.get(lane, {}).get(counter, 0))
            for lane in (*lanes, "overflow")
        }

    def node_batches(self) -> dict[str, int]:
        """Batches served per lane (every node, plus the overflow lane).

        Sums to ``counters["batches"]`` — pinned by the
        ``repro.cluster/1`` schema checker.
        """
        return self._per_lane("batches")

    def node_completed(self) -> dict[str, int]:
        """Batch-completed requests per lane; sums to ``completed``."""
        return self._per_lane("completed")

    def crossings(self) -> dict[str, int]:
        """Answered requests per interconnect tier crossed on return."""
        tree = self._cluster_tree().get("crossings", {})
        return {tier: int(tree.get(tier, 0)) for tier in INTERCONNECT_TIERS}

    @property
    def interconnect_cycles(self) -> int:
        """Total cycles charged to cross-node answer movement."""
        return int(self._cluster_tree().get("interconnect_cycles", 0))

    @property
    def cross_node_hedges(self) -> int:
        """Hedges that targeted a replica on another node."""
        return int(self._cluster_tree().get("cross_node_hedges", 0))

    # ------------------------------------------------------------------
    # Exemplars and SLO burn accounting
    # ------------------------------------------------------------------

    def exemplar_for(self, q: float):
        """The worst request of the pN latency bucket (``None`` = none)."""
        if self.exemplars is None:
            return None
        return self.exemplars.exemplar_for(q)

    def slo_events(self) -> list[tuple[int, bool]]:
        """One ``(terminal_cycle, ok)`` pair per terminal request.

        A request is *good* iff it finished within the SLO; refusals,
        timeouts, and retry-exhausted failures all burn budget. The
        event is stamped at completion for finished requests and at
        arrival for refused/unfinished ones (the cycle the client
        learned its fate, as far as the simulation can tell).
        """
        slo = self.config.slo_cycles
        if slo is None:
            raise SimulationError(
                "burn accounting needs slo_cycles on the service config"
            )
        events = []
        for request in self.requests:
            if request.finished:
                events.append((request.completion, request.latency <= slo))
            else:
                events.append((request.arrival, False))
        return events

    def burn_analysis(
        self,
        *,
        target: float | None = None,
        short_window: int | None = None,
        long_window: int | None = None,
    ) -> dict | None:
        """Multi-window error-budget burn of this run (``None`` = no SLO)."""
        if self.config.slo_cycles is None:
            return None
        return burn_analysis(
            self.slo_events(),
            makespan=self.makespan,
            slo_cycles=self.config.slo_cycles,
            target=self.config.slo_target if target is None else target,
            short_window=short_window,
            long_window=long_window,
        )


@dataclass
class _Shard:
    engine: ExecutionEngine
    busy_until: int = 0


@dataclass
class _Leg:
    """One dispatch leg of a batch (hedging launches two)."""

    shard_index: int
    start: int
    #: ``None`` when an injected crash killed the leg mid-execution.
    completion: int | None
    crash: object
    group_size: int


class ServiceServer:
    """One table, one technique, ``n_nodes`` x ``n_shards`` engine shards,
    simulated online time."""

    def __init__(
        self,
        table,
        config: ServiceConfig,
        *,
        arch: ArchSpec = HASWELL,
        seed: int = 0,
        faults: FaultSchedule | None = None,
        tracer=NULL_REQUEST_TRACER,
        topology: ClusterTopology | None = None,
    ) -> None:
        if topology is None:
            topology = (
                ClusterTopology.single()
                if config.n_nodes == 1
                else ClusterTopology.planet(config.n_nodes)
            )
        if topology.n_nodes != config.n_nodes:
            raise ConfigurationError(
                f"topology has {topology.n_nodes} nodes, config asks for "
                f"{config.n_nodes}"
            )
        self.table = table
        self.config = config
        self.arch = arch
        self.seed = seed
        self.tracer = tracer
        self.topology = topology
        self.router = ClusterRouter(HashRing(config.n_nodes), config.replication)
        #: Home node of each request by arrival index (``None`` = every
        #: answer is served in place); set per :meth:`serve` call.
        self._homes: list[int] | None = None
        self.executor = get_executor(config.technique)
        self.group_size = config.group_size or self.executor.default_group_size
        #: Report label: the *configured* technique, captured before any
        #: online switching moves ``self.executor``.
        self._technique_name = self.executor.name
        self.metrics = MetricsRegistry()
        rate = config.rate_limit_per_kcycle
        self.admission = AdmissionController(
            config.queue_capacity,
            policy=config.overload_policy,
            rate_limiter=(
                TokenBucket(rate, config.rate_limit_burst) if rate else None
            ),
            metrics=self.metrics,
            tracer=tracer,
        )
        self.coalescer = Coalescer(
            self.admission, config.max_batch, config.max_wait_cycles, tracer
        )
        # Exemplar histograms are always on: fixed buckets, O(log n)
        # per observation, and kept out of the metrics registry and the
        # serialized point dict so existing documents stay byte-stable.
        self.exemplars = ExemplarHistogram()
        self.shard_exemplars: dict[str, ExemplarHistogram] = {}
        self._completed = self.metrics.counter("service.completed")
        self._batches = self.metrics.counter("service.batches")
        self._hist = {
            phase: self.metrics.histogram(f"service.latency.{phase}")
            for phase in ("e2e", "queue_wait", "batch_wait", "execution")
        }
        self._shed_hist = self.metrics.histogram("service.latency.shed_e2e")

        # One MultiCoreSystem per node; shards concatenate globally.
        # Node 0 seeds its engines ``seed + local_index``, node k from
        # ``seed + k * n_shards``.
        per_node = config.n_shards
        self.systems = [MultiCoreSystem(per_node, arch) for _ in range(config.n_nodes)]
        self.shards: list[_Shard] = []
        self._node_shards: list[range] = []
        for node, system in enumerate(self.systems):
            base = len(self.shards)
            self.shards.extend(
                _Shard(engine) for engine in system.engines(seed + node * per_node)
            )
            self._node_shards.append(range(base, base + per_node))
        # The overflow lane: its own engine over its own memory, so shed
        # traffic degrades its own latency rather than the batched path's.
        # Fault schedules deliberately cannot target it.
        self._overflow = _Shard(ExecutionEngine(arch, seed=seed + 7919))

        # Control-plane actuation points. With no controller these stay
        # frozen at their configured values, so dispatch planning reads
        # exactly what it read before the control plane existed. Shard
        # consolidation assumes one routing-free shard pool, so only a
        # one-node server offers it.
        self._active_shards = len(self.shards)
        self._overflow_armed = config.overflow_fallback
        self._consolidate_ok = config.n_nodes == 1
        self._controller = (
            AdaptiveController(config.controller)
            if config.controller is not None
            else None
        )

        # Chaos plumbing. An empty/absent schedule leaves the injector
        # unset, making the no-fault path bit-identical to a server
        # without any of this machinery.
        self._injector: FaultInjector | None = None
        self._jitter_rng = None
        if faults:
            self._injector = FaultInjector(
                self._lower_schedule(faults),
                [memory for system in self.systems for memory in system.memories],
                node_l3s=[system.shared_l3 for system in self.systems],
            )
            self._jitter_rng = faults.jitter_rng()
            if self.tracer.enabled:
                self.tracer.record_schedule(faults)
        self._retry_heap: list[tuple[int, int, Request]] = []
        self._retry_seq = 0

        # The kept dispatch plan (see _current_plan) and two memos of
        # pure functions it reads: node liveness at the last trigger
        # cycle, and each queued request's ring preference list.
        self._plan = None
        self._plan_stale = True
        self._alive_memo: tuple[int, frozenset | None] | None = None
        self._prefs: dict[int, tuple[int, ...]] = {}

        self._warm_up()

    # ------------------------------------------------------------------
    # Nodes: fault lowering, lanes
    # ------------------------------------------------------------------

    def _lower_schedule(self, faults: FaultSchedule) -> FaultSchedule:
        """Translate node-scope events into per-shard events.

        A :class:`NodeCrash` becomes a :class:`ShardCrash` on every
        shard the node hosts; a :class:`NodeSlow` becomes a
        :class:`LatencySpike` per shard. Schedules without node events
        pass through *unchanged* (same object), and the lowered
        schedule keeps the original seed, so the retry-jitter stream is
        identical either way.
        """
        events = []
        changed = False
        for event in faults.events:
            if isinstance(event, NodeCrash):
                changed = True
                for node in self._nodes_hit(event):
                    events.extend(
                        ShardCrash(at=event.at, shard=idx, duration=event.duration)
                        for idx in self._node_shards[node]
                    )
            elif isinstance(event, NodeSlow):
                changed = True
                for node in self._nodes_hit(event):
                    events.extend(
                        LatencySpike(
                            at=event.at,
                            shard=idx,
                            duration=event.duration,
                            extra_latency=event.extra_latency,
                        )
                        for idx in self._node_shards[node]
                    )
            else:
                events.append(event)
        if not changed:
            return faults
        return FaultSchedule(
            events=tuple(events),
            seed=faults.seed,
            horizon=faults.horizon,
            profile=faults.profile,
        )

    def _nodes_hit(self, event) -> range | list[int]:
        """Nodes a node-scope event targets (out-of-range = no-op)."""
        if event.node is None:
            return range(self.config.n_nodes)
        if 0 <= event.node < self.config.n_nodes:
            return [event.node]
        return []

    def _node_of_shard(self, shard_index: int) -> int:
        return shard_index // self.config.n_shards

    def _lane_name(self, shard_index: int) -> str:
        """Exemplar-histogram lane name: ``shard{i}`` on one node,
        ``n{node}/s{local}`` on many."""
        if self.config.n_nodes == 1:
            return f"shard{shard_index}"
        per_node = self.config.n_shards
        return f"n{shard_index // per_node}/s{shard_index % per_node}"

    def _lane_tag(self, shard_index: int):
        """Request-trace attempt lane tag: the shard index on one node,
        the lane name on many."""
        if self.config.n_nodes == 1:
            return shard_index
        return self._lane_name(shard_index)

    # ------------------------------------------------------------------
    # Warm-up
    # ------------------------------------------------------------------

    def _warm_up(self) -> None:
        n = self.config.warmup_requests
        if not n:
            return
        rng = np.random.RandomState(self.seed + 101)
        values = [int(v) for v in rng.randint(0, self.table.size, n)]
        tasks = BulkLookup.sorted_array(self.table, values)
        for shard in self.shards:
            self.executor.run(tasks, shard.engine, group_size=self.group_size)
            shard.engine.settle()
        get_executor("sequential").run(tasks, self._overflow.engine)
        self._overflow.engine.settle()
        # Warm-up cycles are not service time: shards start idle at 0.
        for shard in (*self.shards, self._overflow):
            shard.busy_until = 0

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------

    def _execute(self, shard: _Shard, values: list, executor, group_size: int) -> tuple[list, int]:
        """Run one batch on ``shard``'s engine; return (results, cycles)."""
        if self.config.request_kind == "plan":
            return self._execute_plan(shard, values, executor, group_size)
        before = shard.engine.clock
        results = executor.run(
            BulkLookup.sorted_array(self.table, values),
            shard.engine,
            group_size=group_size,
        )
        shard.engine.settle()
        return results, shard.engine.clock - before

    def _execute_plan(
        self, shard: _Shard, values: list, executor, group_size: int
    ) -> tuple[list, int]:
        """Run one batch as a streaming index-join plan.

        The batch's values form the outer side of an
        :class:`~repro.query.IndexJoin` against the served table; the
        probe runs through the same configured executor (or whatever
        ``executor`` the caller degraded/fell back to), so the serving
        economics — switch overhead vs. stall overlap — are unchanged.
        Misses are kept: every request gets an answer slot.
        """
        from repro.query import IndexJoin, QueryPlan, Scan, SortedArrayInner

        plan = QueryPlan(
            IndexJoin(
                Scan.values(values, label="batch_values"),
                SortedArrayInner(self.table),
                executor=executor.name,
                group_size=group_size,
                keep_misses=True,
            )
        )
        before = shard.engine.clock
        result = plan.execute(shard.engine)
        return list(result.value), shard.engine.clock - before

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump a lazily-created resilience counter under ``service.``."""
        self.metrics.counter(f"service.{name}").inc(amount)

    def _observe_answer(self, request: Request, lane: str) -> None:
        """Feed one answered request into the exemplar histograms."""
        if self._controller is not None:
            self._controller.on_answer(request.completion, request.latency)
        self.exemplars.observe(request.latency, request.trace_id)
        hist = self.shard_exemplars.get(lane)
        if hist is None:
            hist = self.shard_exemplars[lane] = ExemplarHistogram()
        hist.observe(request.execution_cycles, request.trace_id)

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    def serve(
        self, arrivals: ArrivalProcess, values, homes: list[int] | None = None
    ) -> ServiceReport:
        """Drive the arrival process to exhaustion; return the report.

        ``values`` supplies the probe value of each request by arrival
        index (any indexable; typically a seeded numpy draw). ``homes``
        optionally pins each request (by arrival index) to a home node
        for interconnect accounting — the planet scenarios derive it
        from the arrival process's region stream.
        """
        self._homes = homes
        requests: list[Request] = []
        now = 0
        makespan = 0
        index = 0

        def at_or_before(cycle, *others):
            return all(other is None or cycle <= other for other in others)

        # The point-fault cursor and the control window move only when
        # their own branch below fires, so they are read there, not on
        # every iteration.
        next_fault = (
            self._injector.next_pending_at() if self._injector is not None else None
        )
        next_control = (
            self._controller.next_boundary() if self._controller is not None else None
        )
        while True:
            next_arrival = arrivals.peek()
            next_retry = self._retry_heap[0][0] if self._retry_heap else None
            plan = self._current_plan()
            dispatch_at = plan[0] if plan is not None else None
            if (
                next_arrival is None
                and next_retry is None
                and next_fault is None
                and dispatch_at is None
            ):
                # Window boundaries are not kept alive on their own:
                # with no work left the run is over and the controller
                # flushes its trailing windows from the report path.
                break
            if next_arrival is not None and at_or_before(
                next_arrival, dispatch_at, next_retry, next_fault, next_control
            ):
                now = max(now, arrivals.pop())
                request = Request(index, values[index], arrival=now)
                index += 1
                requests.append(request)
                if self._controller is not None:
                    self._controller.on_arrival(now)
                verdict = self.admission.offer(request)
                if verdict == "admit":
                    # Only an arrival inside the first max_batch slots
                    # changes the prefix the plan reads.
                    if len(self.admission.queue) <= self.config.max_batch:
                        self._plan_stale = True
                elif verdict == "shed":
                    completion = self._run_shed(request, now)
                    arrivals.notify_completion(completion)
                    makespan = max(makespan, completion)
                else:
                    # Refused requests leave the system immediately; a
                    # closed-loop client retries after thinking.
                    arrivals.notify_completion(now)
                continue
            if next_retry is not None and at_or_before(
                next_retry, dispatch_at, next_fault, next_control
            ):
                now = max(now, next_retry)
                self._release_retries(now)
                continue
            if next_fault is not None and at_or_before(
                next_fault, dispatch_at, next_control
            ):
                now = max(now, next_fault)
                for event in self._injector.apply_pending(now):
                    self._count(f"faults.{event.kind}")
                    if self.tracer.enabled:
                        self.tracer.on_fault_point(event)
                next_fault = self._injector.next_pending_at()
                continue
            if next_control is not None and at_or_before(
                next_control, dispatch_at
            ):
                # Roll the decision window *before* planning dispatch so
                # a changed deadline/technique governs the next batch.
                now = max(now, next_control)
                self._controller.roll_to(now, self)
                next_control = self._controller.next_boundary()
                self._plan_stale = True
                continue
            now = max(now, dispatch_at)
            completion = self._run_batch(now, plan, arrivals)
            makespan = max(makespan, completion)
        return self._make_report(requests, makespan)

    def _make_report(self, requests: list[Request], makespan: int) -> ServiceReport:
        return ServiceReport(
            technique=self._technique_name,
            config=self.config,
            requests=requests,
            makespan=makespan,
            metrics=self.metrics,
            exemplars=self.exemplars,
            shard_exemplars=self.shard_exemplars,
            control=self._control_summary(makespan),
        )

    def _control_summary(self, makespan: int) -> dict | None:
        """Flush and serialize the control plane (``None`` = no controller)."""
        if self._controller is None:
            return None
        self._controller.finish(makespan, self)
        return self._controller.summary()

    def _current_plan(self):
        """The event loop's dispatch plan: kept until an input changes.

        :meth:`_plan_dispatch` is a pure function of the first
        ``max_batch`` queued requests, every lane's ``busy_until``, the
        controller's ``_active_shards``/``_overflow_armed`` and the
        static fault index. The loop marks the plan stale when one of
        those moves — an admit into the prefix, a take, a retry
        requeue, a launch, shed or fallback, a control window roll —
        and keeps it across everything else (refusals, arrivals behind
        a full prefix, cache flushes).
        """
        if self._plan_stale:
            self._plan = self._plan_dispatch()
            self._plan_stale = False
        return self._plan

    def _plan_dispatch(self):
        """Plan the next feasible batch launch.

        Returns ``(start, trigger, groups)`` — or ``None`` while nothing
        waits — where ``start`` is the earliest group's start and each
        :class:`_GroupPlan` places one node's slice of the batch. With
        one node the whole batch is the one group (``members=None``):
        no router call and no queue peek. With several, the batch the
        coalescer will pop splits by each key's primary replica among
        the nodes alive at the trigger.
        """
        trigger = self.coalescer.next_trigger()
        if trigger is None:
            return None
        if self.config.n_nodes == 1:
            groups = [self._plan_group(range(self._active_shards), None, trigger)]
        else:
            alive = self._alive_nodes(trigger)
            grouped: dict[int, list[Request]] = {}
            for request in self._peek_batch():
                node = first_live(self._preference(request), alive)
                grouped.setdefault(node, []).append(request)
            groups = [
                self._plan_group(self._node_shards[node], grouped[node], trigger)
                for node in sorted(grouped)
            ]
        return (min(group.start for group in groups), trigger, groups)

    def _plan_group(self, shards, members, trigger: int) -> _GroupPlan:
        """Least-loaded shard among ``shards``, start at ``max(trigger,
        busy_until)`` pushed past any outage; the group falls back to
        the overflow lane when that is sooner than a fault-delayed
        shard."""
        best_key = None
        for idx in shards:
            shard = self.shards[idx]
            start = max(trigger, shard.busy_until)
            if self._injector is not None:
                start = self._injector.available_from(idx, start)
            key = (start, shard.busy_until, idx)
            if best_key is None or key < best_key:
                best_key = key
        start, _, shard_index = best_key
        fault_delayed = start > max(trigger, self.shards[shard_index].busy_until)
        if fault_delayed and self._overflow_armed and self._injector is not None:
            overflow_start = max(trigger, self._overflow.busy_until)
            if overflow_start < start:
                return _GroupPlan(None, overflow_start, True, members)
        return _GroupPlan(shard_index, start, fault_delayed, members)

    def _preference(self, request: Request) -> tuple[int, ...]:
        """The request's ring preference list, read once while it is
        queued (dropped again when ``take`` pops it)."""
        prefs = self._prefs.get(request.index)
        if prefs is None:
            prefs = self.router.ring.preference(int(request.value))
            self._prefs[request.index] = prefs
        return prefs

    def _alive_nodes(self, at: int) -> frozenset | None:
        """Nodes able to start work at ``at`` (``None`` = no routing
        constraint: either chaos is off or literally everything is down,
        and a fully-dead fleet routes as if healthy — dispatch then
        waits out the outage). Computed once per trigger cycle."""
        if self._injector is None:
            return None
        if self._alive_memo is not None and self._alive_memo[0] == at:
            return self._alive_memo[1]
        alive = frozenset(
            node
            for node in range(self.config.n_nodes)
            if any(
                self._injector.available_from(idx, at) <= at
                for idx in self._node_shards[node]
            )
        )
        self._alive_memo = (at, alive or None)
        return alive or None

    def _peek_batch(self) -> list[Request]:
        """The exact prefix ``coalescer.take`` will pop this iteration.

        Safe to pre-read: the loop re-plans whenever this prefix
        changes (see :meth:`_current_plan`)."""
        queue = self.admission.queue
        return [queue[i] for i in range(min(self.config.max_batch, len(queue)))]

    def _run_batch(self, now: int, plan, arrivals: ArrivalProcess) -> int:
        """Launch the planned batch; returns its resolution cycle."""
        _, trigger, groups = plan
        batch = self.coalescer.take(trigger)
        self._plan_stale = True
        for request in batch:
            self._prefs.pop(request.index, None)
        if any(group.fault_delayed for group in groups):
            self._count("outage_delays")
        batch = self._expire_timeouts(batch, now, arrivals)
        if not batch:
            return now
        alive_ids = {request.index for request in batch}
        resolved = now
        for group in groups:
            if group.members is None:
                members = batch
            else:
                members = [r for r in group.members if r.index in alive_ids]
                if not members:
                    continue
            # The loop woke at the *earliest* group's start; later
            # groups keep their own planned start (it already accounts
            # for that node's outage windows).
            group_now = max(now, group.start)
            if group.shard_index is None:
                done = self._run_fallback(members, group_now, arrivals)
            else:
                done = self._dispatch_group(
                    members, trigger, group.shard_index, group_now, arrivals
                )
            resolved = max(resolved, done)
        return resolved

    def _expire_timeouts(
        self, batch: list[Request], now: int, arrivals: ArrivalProcess
    ) -> list[Request]:
        """Deadline enforcement at dispatch: a request whose deadline
        passed while its batch waited times out unserved."""
        if self.config.timeout_cycles is None:
            return batch
        alive = []
        for request in batch:
            if now > request.arrival + self.config.timeout_cycles:
                request.outcome = "timeout"
                self._count("timeouts")
                if self.tracer.enabled:
                    self.tracer.on_timeout(request, now)
                arrivals.notify_completion(now)
            else:
                alive.append(request)
        return alive

    def _dispatch_group(
        self,
        batch: list[Request],
        trigger: int,
        shard_index: int,
        now: int,
        arrivals: ArrivalProcess,
    ) -> int:
        """Dispatch one coalesced group onto its planned shard (plus a
        hedge leg when the policy fires); returns its resolution cycle."""
        shard = self.shards[shard_index]
        start = max(now, shard.busy_until)
        for request in batch:
            request.attempts += 1
        probe_values = [r.value for r in batch]
        legs = [self._launch(shard_index, probe_values, start)]
        if (
            self.config.hedge_after_cycles is not None
            and len(self.shards) > 1
            and start - trigger > self.config.hedge_after_cycles
        ):
            among = self._hedge_candidates(shard_index, batch)
            # An unreplicated key on a one-shard node has no legal
            # secondary.
            if any(idx != shard_index for idx in among):
                hedge_index = self._plan_hedge(shard_index, start, among)
                self._count("hedges")
                hedge_start = max(start, self.shards[hedge_index].busy_until)
                if self._injector is not None:
                    hedge_start = self._injector.available_from(
                        hedge_index, hedge_start
                    )
                legs.append(self._launch(hedge_index, probe_values, hedge_start))

        survivors = [leg for leg in legs if leg.completion is not None]
        winner = (
            min(survivors, key=lambda leg: (leg.completion, leg.start))
            if survivors
            else None
        )
        if self.tracer.enabled:
            self._trace_attempts(batch, legs, winner)
        if winner is None:
            # Every leg crashed: the batch fails when the last hope dies.
            failure_at = max(leg.crash.at for leg in legs)
            return self._fail_batch(batch, failure_at, arrivals)
        if len(legs) > 1 and winner is not legs[0]:
            self._count("hedge_wins")
        resolved = winner.completion
        self._batches.inc()
        served_on = self._node_of_shard(winner.shard_index)
        self._on_batch_served(f"node{served_on}", batch)
        lane = self._lane_name(winner.shard_index)
        for request in batch:
            completion = winner.completion + self._crossing(request, served_on)
            request.dispatch = winner.start
            request.completion = completion
            self._completed.inc()
            self._hist["e2e"].observe(request.latency)
            self._hist["queue_wait"].observe(request.queue_wait)
            self._hist["batch_wait"].observe(request.batch_wait)
            self._hist["execution"].observe(request.execution_cycles)
            self._observe_answer(request, lane)
            arrivals.notify_completion(completion)
            resolved = max(resolved, completion)
        return resolved

    def _on_batch_served(self, lane: str, batch: list[Request]) -> None:
        """Per-node accounting of one answered batch (``"node{i}"`` or
        ``"overflow"``)."""
        self.metrics.counter(f"cluster.{lane}.batches").inc()
        self.metrics.counter(f"cluster.{lane}.completed").inc(len(batch))

    def _hedge_candidates(self, primary: int, batch: list[Request]) -> list[int]:
        """Shard indexes a hedge may target: the batch's other replica
        nodes when keys are replicated, else the primary's own node."""
        primary_node = self._node_of_shard(primary)
        if self.config.replication > 1:
            nodes: set[int] = set()
            for request in batch:
                nodes.update(self.router.replicas(int(request.value)))
            nodes.discard(primary_node)
            if nodes:
                self.metrics.counter("cluster.cross_node_hedges").inc()
                return [
                    idx for node in sorted(nodes) for idx in self._node_shards[node]
                ]
        # Unreplicated keys can only be re-probed where they live.
        return list(self._node_shards[primary_node])

    def _crossing(self, request: Request, served_on: int) -> int:
        """Interconnect cycles for returning one answer from node
        ``served_on`` to the request's home node (counted by tier)."""
        home = served_on if self._homes is None else self._homes[request.index]
        tier = self.topology.tier(home, served_on)
        cost = self.topology.costs.for_tier(tier)
        self.metrics.counter(f"cluster.crossings.{tier}").inc()
        if cost:
            self.metrics.counter("cluster.interconnect_cycles").inc(cost)
        return cost

    def _trace_attempts(self, batch, legs: list[_Leg], winner: _Leg | None) -> None:
        """Record every dispatch leg of one batch as attempt spans.

        A crashed leg closes at its crash cycle (restart attached); a
        hedge loser closes at the *winner's* completion — cancel on
        first answer — with its planned completion kept as an attribute
        so the trace shows both where it was cut and where it would
        have run to.
        """
        dispatch_id = self.tracer.begin_dispatch()
        for leg in legs:
            hedge = leg is not legs[0]
            faults = self._leg_fault_kinds(leg)
            if leg.crash is not None and (
                winner is None or leg.crash.at <= winner.completion
            ):
                self.tracer.on_attempt(
                    batch,
                    dispatch_id=dispatch_id,
                    lane=self._lane_tag(leg.shard_index),
                    start=leg.start,
                    end=leg.crash.at,
                    group_size=leg.group_size,
                    status="crashed",
                    hedge=hedge,
                    restart_until=leg.crash.until,
                    faults=faults,
                )
            elif leg is not winner:
                # A losing leg — surviving or crashing only after the
                # winner already answered — is *cancelled* the moment
                # the first answer lands: whatever happens to the shard
                # afterwards is no longer this request's story.
                planned = (
                    leg.completion if leg.crash is None else leg.crash.at
                )
                # A leg whose start was pushed past the winner's answer
                # is cancelled before it ever ran (zero-width span).
                start = min(leg.start, winner.completion)
                end = max(start, min(planned, winner.completion))
                self.tracer.on_attempt(
                    batch,
                    dispatch_id=dispatch_id,
                    lane=self._lane_tag(leg.shard_index),
                    start=start,
                    end=end,
                    group_size=leg.group_size,
                    status="cancelled",
                    hedge=hedge,
                    planned_end=planned,
                    planned_start=leg.start if leg.start != start else None,
                    faults=faults,
                )
            else:
                self.tracer.on_attempt(
                    batch,
                    dispatch_id=dispatch_id,
                    lane=self._lane_tag(leg.shard_index),
                    start=leg.start,
                    end=leg.completion,
                    group_size=leg.group_size,
                    status="ok",
                    winner=True,
                    hedge=hedge,
                    faults=faults,
                )

    def _leg_fault_kinds(self, leg: _Leg) -> tuple:
        """Kinds of fault windows this leg executed under (annotation)."""
        if self._injector is None:
            return ()
        end = leg.completion if leg.completion is not None else leg.crash.until
        return self._injector.window_kinds_between(
            leg.shard_index, leg.start, end
        )

    def _launch(self, shard_index: int, values: list, start: int) -> _Leg:
        """Execute one leg on a shard.

        The returned leg's ``completion`` is ``None`` when an injected
        crash landed inside the execution window — the shard then stays
        down until the crash's restart cycle.
        """
        shard = self.shards[shard_index]
        if self._injector is not None:
            # Sampled once: the group-size decision and the execution
            # see the same environment.
            env = self._injector.environment(shard_index, start)
            group = self._effective_group_size(env)
            if env.extra_latency:
                self._count("faults.latency_spike")
            if env.lfb_capacity is not None:
                self._count("faults.lfb_shrink")
            with self._injector.applied(shard_index, start, env):
                _, cycles = self._execute(shard, values, self.executor, group)
        else:
            group = self.group_size
            _, cycles = self._execute(shard, values, self.executor, group)
        completion = start + cycles
        crash = (
            self._injector.crash_between(shard_index, start, completion)
            if self._injector is not None
            else None
        )
        if crash is not None:
            self._count("batch_failures")
            self._count("faults.shard_crash")
            shard.busy_until = crash.until
            return _Leg(shard_index, start, None, crash, group)
        shard.busy_until = completion
        return _Leg(shard_index, start, completion, None, group)

    def _plan_hedge(self, primary: int, start: int, among: list[int]) -> int:
        """Pick the secondary shard for a hedged dispatch among the
        candidate shard indexes (never the primary)."""
        best_key = None
        for idx in among:
            if idx == primary:
                continue
            shard = self.shards[idx]
            leg_start = max(start, shard.busy_until)
            if self._injector is not None:
                leg_start = self._injector.available_from(idx, leg_start)
            key = (leg_start, shard.busy_until, idx)
            if best_key is None or key < best_key:
                best_key = key
        return best_key[2]

    def _effective_group_size(self, env: FaultEnv) -> int:
        """Group size for one leg under its fault environment, degraded
        per Inequality 1 if adaptive."""
        group = self.group_size
        if self.config.degradation != "adaptive":
            return group
        kind = getattr(self.executor, "switch_kind", None)
        if not env or kind not in ("gp", "amac", "coro"):
            return group
        degraded = degraded_group_size(
            self.arch,
            kind,
            extra_dram_latency=env.extra_latency,
            lfb_capacity=env.lfb_capacity,
        )
        if degraded != group:
            self._count("degraded_batches")
        return degraded

    def _fail_batch(
        self, batch: list[Request], failure_at: int, arrivals: ArrivalProcess
    ) -> int:
        """Crash resolution: requeue with backoff+jitter, or fail for good."""
        backoff = self.config.retry_backoff_cycles
        for request in batch:
            if request.attempts <= self.config.max_retries:
                delay = backoff * (2 ** (request.attempts - 1)) if backoff else 0
                if self._jitter_rng is not None and backoff:
                    delay += self._jitter_rng.randrange(max(1, backoff // 4))
                self._count("retries")
                self._retry_seq += 1
                heapq.heappush(
                    self._retry_heap,
                    (failure_at + delay, self._retry_seq, request),
                )
                if self.tracer.enabled:
                    self.tracer.on_backoff(
                        request, failure_at, failure_at + delay
                    )
            else:
                request.outcome = "failed"
                self._count("failed")
                if self.tracer.enabled:
                    self.tracer.on_failed(request, failure_at)
                arrivals.notify_completion(failure_at)
        return failure_at

    def _release_retries(self, now: int) -> None:
        """Move every due retry back into the waiting room (no re-offer:
        a retried request was already admitted once).

        Due retries are requeued *ahead* of waiting arrivals: a crash
        victim is the oldest work in the system (it was dispatched before
        anything now queued arrived), so queue order stays FIFO by
        arrival. Tail-requeuing would make an overloaded server punish
        exactly the requests a fault already delayed — each retry would
        sink behind a backlog that never drains.
        """
        due: list[Request] = []
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, request = heapq.heappop(self._retry_heap)
            due.append(request)
        for request in reversed(due):
            self.admission.requeue(request)
            if self.tracer.enabled:
                self.tracer.on_requeue(request, now)
        self._plan_stale = True

    def _run_fallback(
        self, batch: list[Request], now: int, arrivals: ArrivalProcess
    ) -> int:
        """Every shard is down: serve the batch on the overflow lane."""
        lane = self._overflow
        start = max(now, lane.busy_until)
        self._count("fallback_batches")
        _, cycles = self._execute(
            lane, [r.value for r in batch], get_executor("sequential"), 1
        )
        completion = start + cycles
        lane.busy_until = completion
        self._batches.inc()
        self._on_batch_served("overflow", batch)
        if self.tracer.enabled:
            self.tracer.on_attempt(
                batch,
                dispatch_id=self.tracer.begin_dispatch(),
                lane="overflow",
                start=start,
                end=completion,
                group_size=1,
                status="ok",
                winner=True,
            )
        for request in batch:
            request.attempts += 1
            request.dispatch = start
            request.completion = completion
            self._completed.inc()
            self._hist["e2e"].observe(request.latency)
            self._hist["queue_wait"].observe(request.queue_wait)
            self._hist["batch_wait"].observe(request.batch_wait)
            self._hist["execution"].observe(request.execution_cycles)
            self._observe_answer(request, "overflow")
            arrivals.notify_completion(completion)
        return completion

    def _run_shed(self, request: Request, now: int) -> int:
        """Serve one shed request ungrouped on the overflow engine."""
        self._plan_stale = True  # the overflow lane's busy_until moves
        lane = self._overflow
        start = max(now, lane.busy_until)
        _, cycles = self._execute(lane, [request.value], get_executor("sequential"), 1)
        completion = start + cycles
        lane.busy_until = completion
        request.trigger = start
        request.dispatch = start
        request.completion = completion
        self._shed_hist.observe(request.latency)
        self._observe_answer(request, "overflow")
        if self.tracer.enabled:
            self.tracer.on_attempt(
                [request],
                dispatch_id=self.tracer.begin_dispatch(),
                lane="overflow",
                start=start,
                end=completion,
                group_size=1,
                status="ok",
                winner=True,
            )
        return completion


@dataclass
class _GroupPlan:
    """One node's slice of a planned batch dispatch."""

    #: ``None`` = the slice falls back to the overflow lane.
    shard_index: int | None
    start: int
    fault_delayed: bool
    #: The slice's requests; ``None`` = the whole batch (one node).
    members: list[Request] | None
