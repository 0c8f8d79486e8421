"""repro — Interleaving with Coroutines, reproduced on a simulated core.

A faithful reproduction of Psaropoulos, Legler, May, and Ailamaki,
"Interleaving with Coroutines: A Practical Approach for Robust Index
Joins" (PVLDB 11(2), 2017), built on a simulated Haswell-class core and
memory hierarchy because the technique's effect is purely
micro-architectural and unobservable from pure Python.

Layers (bottom-up):

* :mod:`repro.sim` — caches, line-fill buffers, TLB/page walker, and a
  cycle-cost execution engine with TMAM accounting.
* :mod:`repro.indexes` — sorted arrays, binary-search variants
  (speculative ``std``, branch-free ``Baseline``, the coroutine of
  Listing 5), CSB+-trees, hash tables, a page-blocked B+-tree.
* :mod:`repro.interleaving` — the paper's contribution: coroutine
  handles, the sequential/interleaved schedulers of Listing 7, plus
  Group Prefetching and AMAC for comparison, and the Inequality-1
  group-size model.
* :mod:`repro.columnstore` — SAP HANA-like substrate: Main/Delta
  dictionaries, encoded columns, IN-predicate queries.
* :mod:`repro.query` — pull-based query plans: Scan/Filter/Aggregate
  around a streaming ``IndexJoin`` that probes inner indexes through
  the executor registry with bounded task/match buffers.
* :mod:`repro.service` — the online serving layer: simulated-time
  arrivals, admission control, request coalescing, SLO accounting; one
  server for one node or a routed fleet (the ``planet`` scenarios).
* :mod:`repro.cluster` — what only matters with several nodes: tiered
  interconnects, R-way replicated consistent hashing, user-population
  keys and home nodes.
* :mod:`repro.workloads` / :mod:`repro.analysis` — workload generation,
  measurement harness, reporting, Table-5 LoC analysis.

* :mod:`repro.faults` — deterministic fault injection: seeded chaos
  schedules (latency spikes, shard outages, cache storms) replayed
  bit-identically against the serving layer or an offline bulk run.
* :mod:`repro.control` — the adaptive control plane: a deterministic
  tumbling-window feedback controller inside the serving loop that
  switches technique, group size, batch deadline, and shard allocation
  from the exported signals, every decision a cycle-stamped event.
* :mod:`repro.scenario` — the one scenario type: a frozen
  :class:`~repro.scenario.Scenario`, checked at construction, whose
  ``kind`` (service or cluster) is the one multi-node decision and
  whose ``from_dict``/``to_dict`` are the versioned ``repro.scenario/1``
  JSON/YAML form (``file:scenario.yaml`` works wherever a registry name
  does).
* :mod:`repro.api` — the stable facade: :func:`~repro.api.
  run_experiment`, :func:`~repro.api.serve`, :func:`~repro.api.
  lookup_batch`, and :func:`~repro.api.inject_faults`, each returning
  a typed result. **New code should start here.**

Quick start::

    from repro import api, int_array_of_bytes, AddressSpaceAllocator

    alloc = AddressSpaceAllocator()
    table = int_array_of_bytes(alloc, "dict", 256 << 20)  # 256 MB
    batch = api.lookup_batch(table, [12345, 67890])       # policy-picked
    print(batch.technique, batch.cycles_per_lookup)

The deep modules stay public — ``run_interleaved``, the executor
registry, the serving server — for anything the facade doesn't cover.
"""

from repro.config import HASWELL, ArchSpec, CacheSpec, CostModel, TlbSpec, scaled
from repro.errors import (
    ColumnStoreError,
    ConfigurationError,
    CoroutineStateError,
    IndexStructureError,
    QueryError,
    ReproError,
    SchedulerError,
    SimulationError,
    SpecError,
    WorkloadError,
)
from repro.indexes import (
    INVALID_CODE,
    BlockedBTree,
    ChainedHashTable,
    CSBTree,
    ImplicitCSBTree,
    ImplicitSortedArray,
    SortedIntArray,
    SortedStringArray,
    binary_search_baseline,
    binary_search_coro,
    binary_search_std,
    blocked_lookup_stream,
    csb_lookup_stream,
    hash_probe_stream,
    int_array_of_bytes,
    locate_stream,
    string_array_of_bytes,
)
from repro.interleaving import (
    EXECUTOR_REGISTRY,
    BulkLookup,
    BulkPipeline,
    CoroutineHandle,
    Executor,
    ExecutionPolicy,
    FramePool,
    amac_binary_search_bulk,
    choose_policy,
    choose_policy_for_bytes,
    default_group_size,
    executor_names,
    executors_supporting,
    get_executor,
    gp_binary_search_bulk,
    optimal_group_size,
    paper_techniques,
    register_executor,
    run_interleaved,
    run_sequential,
)
from repro.columnstore import (
    ColumnTable,
    DeltaDictionary,
    DeltaStore,
    EncodedColumn,
    MainDictionary,
    run_in_predicate,
)
from repro.query import (
    Aggregate,
    Filter,
    IndexJoin,
    InPredicateEncode,
    OperatorProfile,
    PlanResult,
    QueryPlan,
    Scan,
    SortedArrayInner,
    in_predicate_plan,
)
from repro.service import (
    Scenario,
    ServiceConfig,
    ServiceReport,
    ServiceServer,
    get_scenario,
    scenario_names,
)
from repro.cluster import ClusterTopology
from repro.sim import AddressSpaceAllocator, ExecutionEngine, MemorySystem
from repro import api
from repro.api import (
    ClusterServeResult,
    ExperimentResult,
    ExplainResult,
    FaultInjectionResult,
    LookupResult,
    ServeResult,
    PlanRunResult,
    explain,
    inject_faults,
    lookup_batch,
    run_experiment,
    run_plan,
    serve,
)
from repro.faults import (
    FAULT_KINDS,
    FaultSchedule,
    fault_profile_names,
    get_fault_profile,
)
from repro.control import AdaptiveController, ControllerConfig
from repro.scenario import load_spec_file, parse_spec_text, resolve_scenario

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "HASWELL",
    "ArchSpec",
    "CacheSpec",
    "CostModel",
    "TlbSpec",
    "scaled",
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "SchedulerError",
    "CoroutineStateError",
    "IndexStructureError",
    "ColumnStoreError",
    "WorkloadError",
    "QueryError",
    "AddressSpaceAllocator",
    "ExecutionEngine",
    "MemorySystem",
    "INVALID_CODE",
    "SortedIntArray",
    "SortedStringArray",
    "ImplicitSortedArray",
    "int_array_of_bytes",
    "string_array_of_bytes",
    "binary_search_std",
    "binary_search_baseline",
    "binary_search_coro",
    "locate_stream",
    "CSBTree",
    "ImplicitCSBTree",
    "csb_lookup_stream",
    "ChainedHashTable",
    "hash_probe_stream",
    "BlockedBTree",
    "blocked_lookup_stream",
    "CoroutineHandle",
    "FramePool",
    "run_sequential",
    "run_interleaved",
    "gp_binary_search_bulk",
    "amac_binary_search_bulk",
    "optimal_group_size",
    "default_group_size",
    "choose_policy",
    "choose_policy_for_bytes",
    "ExecutionPolicy",
    "EXECUTOR_REGISTRY",
    "BulkLookup",
    "BulkPipeline",
    "Executor",
    "executor_names",
    "executors_supporting",
    "get_executor",
    "paper_techniques",
    "register_executor",
    "MainDictionary",
    "DeltaDictionary",
    "EncodedColumn",
    "DeltaStore",
    "ColumnTable",
    "run_in_predicate",
    "Aggregate",
    "Filter",
    "IndexJoin",
    "InPredicateEncode",
    "OperatorProfile",
    "PlanResult",
    "QueryPlan",
    "Scan",
    "SortedArrayInner",
    "in_predicate_plan",
    "Scenario",
    "ServiceConfig",
    "ServiceReport",
    "ServiceServer",
    "get_scenario",
    "scenario_names",
    "ClusterTopology",
    "api",
    "ExperimentResult",
    "ServeResult",
    "ClusterServeResult",
    "ExplainResult",
    "LookupResult",
    "FaultInjectionResult",
    "PlanRunResult",
    "run_experiment",
    "run_plan",
    "serve",
    "explain",
    "lookup_batch",
    "inject_faults",
    "FAULT_KINDS",
    "FaultSchedule",
    "fault_profile_names",
    "get_fault_profile",
    "SpecError",
    "AdaptiveController",
    "ControllerConfig",
    "load_spec_file",
    "parse_spec_text",
    "resolve_scenario",
]
