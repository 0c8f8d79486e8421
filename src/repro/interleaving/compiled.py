"""Staged replay: the engine path behind every schedulable executor.

For a fixed (technique, group size, per-key program) the suspend/resume
sequence of every scheduler in this package is *deterministic*: which
stream runs next, and whether its visit issues a prefetch, a load, or a
switch, depends only on how many segments (the events between two
suspensions) each key's program has and on the group size — never on
the memory system's state. Cimple exploits exactly this to stage
interleave schedules statically, separating the per-request program
from its scheduler, and CoroBase flattens coroutine frames into
compiler-visible state machines for the same reason. This module does
the Python-simulator equivalent:

1. **Record** — each key's program is a list of segments; a stager per
   technique interleaves the segments the way the technique's scheduler
   does (round-robin with frame recycling for CORO, round-robin with
   in-visit refill for AMAC, lock-step blocks for GP, back to back for
   the sequential ones) into a flattened *event schedule*: a table of
   ``(event_kind, address_index, cycle_cost)`` rows with consecutive
   straight-line computes pre-merged. The staging is verified against a
   real recorded trace: the first time a (workload shape, technique,
   group size) triple compiles, the generator scheduler runs a small
   calibration job under a recording engine, and the schedule must
   reproduce that event stream byte for byte (a mismatch is a hard
   :class:`~repro.errors.SimulationError`, never a silent wrong answer).
2. **Parameterize** — binary searches (sorted arrays and the Main
   dictionary's ``locate``) have one program shape per table: every key
   follows the same size-halving recurrence, so their schedule is staged
   once per shape and per-key divergence lives entirely in the probe
   *addresses*. One numpy pass computes the whole ``(n_keys, depth)``
   probe matrix for the paper's identity arrays (a pure-Python pass
   covers arbitrary monotone ``value_fn`` tables). Delta ``locate`` walks
   a CSB+-tree whose nodes hold different key counts, so each key's
   program has its own length: it is read off the key's own
   ``locate_stream``, stepped once without an engine. That stream never
   reads what a ``Prefetch`` sends back, so no event depends on memory
   state, and the generator stays the one definition of the walk.
3. **Replay** — a loop generated and compiled per machine geometry
   executes the schedule directly against the live memory system (same
   cache dicts, same TLB LRU arrays, same line-fill buffers, same
   ``FillRequest`` objects) with the engine's arithmetic inlined and all
   statistics accumulated in local integers, written back once at the
   end. No generators, no event objects, no dispatch — and
   **bit-identical** cycle counts, search results, and counters, because
   every arithmetic step is the same integer arithmetic
   :mod:`repro.sim.engine` performs.

The registry executors (``Baseline``, ``GP``, ``AMAC``, ``CORO``,
``sequential``) call :func:`replay_staged` on every run. Binary-search
schedules are memoized in-process and persisted through the
content-addressed :class:`~repro.perf.cache.ResultCache` (when
``repro.perf`` has one configured), keyed on the schedule parameters plus
the simulator source fingerprint — editing any simulation source
invalidates every stored schedule.

Shapes the schedule can not represent fall back — **counted** — to the
executor's generator scheduler: workloads other than sorted arrays and
dictionary locates (CSB+-tree, hash probes, raw streams, whose programs
may read a prefetch's outcome), the sequential Main locate (its
speculative ``std`` search issues loads the replay loop does not model),
traced runs (span recorders need the live event stream), engine
subclasses, degenerate one-element tables, and layouts whose accesses
can straddle a cache line. The counters are exported through
``repro.obs`` metrics under ``interleaving.compiled``.
"""

from __future__ import annotations

from dataclasses import replace
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import itemgetter
from textwrap import indent as _indent_text
from time import perf_counter
from typing import Iterable, Iterator

import numpy as np

from repro.errors import SimulationError
from repro.indexes.base import INVALID_CODE
from repro.interleaving.executor import LOCATE, SORTED_ARRAY, BulkLookup
from repro.sim.allocator import PAGE_TABLE_BASE
from repro.sim.engine import ExecutionEngine
from repro.sim.events import Compute, Load, Prefetch, Suspend
from repro.sim.lfb import FillRequest
from repro.sim.tlb import PTE_SIZE

__all__ = [
    "compiled_stats",
    "compiled_timings",
    "compiled_metrics_source",
    "register_compiled_metrics",
    "reset_compiled_stats",
    "replay_staged",
    "search_depth",
]

# ----------------------------------------------------------------------
# Counters and timings (exported via repro.perf.metrics)
# ----------------------------------------------------------------------

_STATS = {
    "replays": 0,
    "compiled_schedules": 0,
    "schedule_cache_hits": 0,
    "result_cache_hits": 0,
    "result_cache_stores": 0,
    "validations": 0,
    "fallbacks": 0,
    "fallbacks_by_reason": {},
    "fallbacks_by_executor": {},
    "schedule_compile_s": 0.0,
    "replay_s": 0.0,
}


def compiled_stats() -> dict:
    """Plain-dict view of the compile/replay/fallback counters."""
    stats = dict(_STATS)
    stats["fallbacks_by_reason"] = dict(_STATS["fallbacks_by_reason"])
    stats["fallbacks_by_executor"] = dict(_STATS["fallbacks_by_executor"])
    return stats


def compiled_timings() -> dict:
    """Cumulative wallclock split: staging schedules vs replaying them."""
    return {
        "schedule_compile_s": _STATS["schedule_compile_s"],
        "replay_s": _STATS["replay_s"],
    }


def compiled_metrics_source() -> dict:
    """Metrics-source view of the counters (see ``register_compiled_metrics``).

    The headline counter is ``compiled_fallbacks`` — bulk runs of a
    schedulable executor that took its generator scheduler instead of
    replaying a staged schedule.
    """
    stats = compiled_stats()
    stats["compiled_fallbacks"] = stats.pop("fallbacks")
    return stats


def register_compiled_metrics(registry, prefix: str = "interleaving.compiled") -> None:
    """Mount the compile/replay/fallback counters on an obs registry.

    The counters are process-global (the schedule caches they describe
    are too), so the source is opt-in per
    :class:`~repro.obs.metrics.MetricsRegistry` rather than wired into
    every engine — the tracing harness mounts it so run-summary
    artifacts carry ``compiled_fallbacks``.
    """
    registry.register_source(prefix, compiled_metrics_source)


def reset_compiled_stats() -> None:
    """Zero every counter and timer (tests and benchmark harnesses)."""
    for key, value in list(_STATS.items()):
        if isinstance(value, dict):
            value.clear()
        elif isinstance(value, float):
            _STATS[key] = 0.0
        else:
            _STATS[key] = 0


def _count_fallback(executor_name: str, reason: str) -> None:
    _STATS["fallbacks"] += 1
    by_reason = _STATS["fallbacks_by_reason"]
    by_reason[reason] = by_reason.get(reason, 0) + 1
    by_executor = _STATS["fallbacks_by_executor"]
    by_executor[executor_name] = by_executor.get(executor_name, 0) + 1


# ----------------------------------------------------------------------
# Schedule staging: per-key programs, interleaved per technique
# ----------------------------------------------------------------------
#
# Symbolic micro-ops, exactly one per engine-visible event:
#   ("F",)              coroutine frame allocation
#   ("SW", kind)        one stream switch (kind: "coro" | "amac" | "gp")
#   ("C", cyc, ins)     one straight-line compute
#   ("L", a, size)      demand load of addresses[a]
#   ("P", a, size)      software prefetch of addresses[a]
#   ("PL", a)           a further line of the prefetch before it
#                       (addresses[a] is that line's first byte)
# A key's *program* is the list of its segments: the ops between two
# suspensions of its coroutine (or AMAC state machine), in order. The
# stagers stream a schedule as *chunks* (sequences of ops): whole
# segments plus the switches and frame allocations between them, so no
# flattened op list is ever built.


def search_depth(size: int) -> int:
    """Iterations of the shared binary-search recurrence for ``size``."""
    depth = 0
    while size // 2 > 0:
        size -= size // 2
        depth += 1
    return depth


#: The compute of ``locate_stream``'s final equality check.
_VERIFY_COMPUTE = ("C", 2, 2)


def _search_program(
    key: int, depth: int, interleave: bool, iter_op: tuple, element_size: int, verify
) -> list:
    """Key ``key``'s binary search (Listing 5) as a segment list.

    Probe ``it`` is ``addresses[key * depth + it]``. With ``interleave``
    each probe's prefetch ends a segment, as the coroutine's
    ``Prefetch`` + ``SUSPEND`` does. ``verify`` is the address index of
    key 0's verification load (``locate_stream``'s epilogue; key ``k``'s
    is ``verify + k``), or ``None`` for a plain search.
    """
    base = key * depth
    segments = []
    segment = []
    for it in range(depth):
        if interleave:
            segment.append(("P", base + it, element_size))
            segments.append(segment)
            segment = []
        segment.append(("L", base + it, element_size))
        segment.append(iter_op)
    if verify is not None:
        segment.append(("L", verify + key, element_size))
        segment.append(_VERIFY_COMPUTE)
    segments.append(segment)
    return segments


def _ops_sequential(programs: Iterator[list]) -> Iterator:
    """Baseline / sequential: each key runs to completion, in order."""
    for program in programs:
        yield from program


def _ops_round_robin(
    programs: Iterator[list], n: int, group_size: int, technique: str
) -> Iterator:
    """CORO and AMAC: Listing 7's round-robin over ``group_size`` slots.

    ``programs`` yields the ``n`` keys' segment lists in key order. Keys
    take slots in that order, so a key's list is drawn only when it
    takes one, and at most ``group_size`` lists are alive at once.

    Every visit to a live slot charges one switch and runs the slot's
    next segment, so the interleaving depends only on each program's
    segment count. The two techniques differ where a key ends. CORO
    allocates one frame per slot up front; the visit after a key's last
    segment recycles the frame for the next key and runs no events.
    AMAC has no frames and refills the slot inside the same visit,
    running the next key's first segment.
    """
    coro = technique == "coro"
    switch = (("SW", technique),)
    group = min(group_size, n)
    if coro:
        yield (("F",),) * group  # only the first generation allocates
    # Slot state: [program, segments run]; None once retired.
    slots: list = [[next(programs), 0] for _ in range(group)]
    waiting = n - group
    not_done = group
    while not_done:
        for position in range(group):
            slot = slots[position]
            if slot is None:
                continue
            program, ran = slot
            if coro:
                if ran < len(program):
                    yield switch
                    yield program[ran]
                    slot[1] = ran + 1
                elif waiting:  # recycled frame: no events this visit
                    slots[position] = [next(programs), 0]
                    waiting -= 1
                else:
                    slots[position] = None
                    not_done -= 1
                continue
            yield switch
            while True:
                yield program[ran]
                ran += 1
                if ran < len(program):
                    slot[0] = program
                    slot[1] = ran
                    break
                if not waiting:
                    slots[position] = None
                    not_done -= 1
                    break
                program = next(programs)
                waiting -= 1
                ran = 0


def _interleave(
    technique: str, programs: Iterable[list], n: int, group_size: int
) -> Iterator:
    """The staged chunks of ``n`` key ``programs`` under ``technique``."""
    if technique in ("coro", "amac"):
        return _ops_round_robin(iter(programs), n, group_size, technique)
    return _ops_sequential(iter(programs))


def _ops_gp(
    n: int, depth: int, group_size: int, iter_op: tuple, element_size: int
) -> Iterator:
    """Group prefetching: lock-step blocks, prefetch stage then load stage."""
    switch = ("SW", "gp")
    for start in range(0, n, group_size):
        keys = range(start, min(start + group_size, n))
        for it in range(depth):
            yield [("P", key * depth + it, element_size) for key in keys]
            for key in keys:
                yield (("L", key * depth + it, element_size), iter_op, switch)


def _search_shape(tasks: BulkLookup, table) -> tuple:
    """``(n, depth, iter_op, element_size, verify)`` of a binary-search job.

    ``verify`` marks a Main locate, whose ``locate_stream`` ends each
    search with a verification load (address index ``n * depth + key``)
    and compute.
    """
    costs = tasks.costs.for_table(table)
    return (
        len(tasks.inputs),
        search_depth(table.size),
        ("C", costs.iter_cycles, costs.iter_instructions),
        table.element_size,
        tasks.kind == LOCATE,
    )


def _search_chunks(technique: str, group_size: int, shape: tuple) -> Iterator:
    """Staged chunks of the binary searches of ``shape``."""
    n, depth, iter_op, element_size, verify = shape
    if technique == "gp":
        return _ops_gp(n, depth, group_size, iter_op, element_size)
    interleave = technique in ("coro", "amac")
    verify_base = n * depth if verify else None
    programs = (
        _search_program(key, depth, interleave, iter_op, element_size, verify_base)
        for key in range(n)
    )
    return _interleave(technique, programs, n, group_size)


class _LineStraddle(Exception):
    """An access of a stepped program touches two cache lines."""


def _stepped_programs(
    tasks: BulkLookup, interleave: bool, line_size: int, addresses: list, results: list
) -> Iterator[list]:
    """Yield each input's locate program, read off its own stream.

    Steps ``tasks.target.locate_stream`` once per input with no engine
    attached, sending back ``None`` where the engine would send a
    prefetch's outcome — the dictionary locates never read it. Appends
    each program's addresses to ``addresses`` and its result to
    ``results`` as it goes. Raises :class:`_LineStraddle` when an access
    straddles a cache line (the replay loop touches one line per load).
    """
    dictionary, costs = tasks.target, tasks.costs
    add = addresses.append
    compute = compute_op = None
    for value in tasks.inputs:
        stream = dictionary.locate_stream(value, interleave, costs)
        segments: list = [[]]
        emit = segments[0].append
        send = stream.send
        try:
            while True:
                event = send(None)
                kind = type(event)
                if kind is Load and event.spec_next is None:
                    address = event.addr
                    size = event.size
                    if address % line_size + size > line_size:
                        raise _LineStraddle
                    emit(("L", len(addresses), size))
                    add(address)
                elif kind is Compute:
                    # Streams reuse their fixed computes: one op per object.
                    if event is not compute:
                        compute = event
                        compute_op = ("C", event.cycles, event.instructions)
                    emit(compute_op)
                elif kind is Suspend:
                    segment: list = []
                    segments.append(segment)
                    emit = segment.append
                elif kind is Prefetch and event.nta:
                    address = event.addr
                    size = event.size
                    emit(("P", len(addresses), size))
                    add(address)
                    last = (address + size - 1) // line_size
                    for line in range(address // line_size + 1, last + 1):
                        emit(("PL", len(addresses)))
                        add(line * line_size)
                else:
                    raise SimulationError(
                        f"locate program yielded {event!r}, which staged "
                        "replay does not model"
                    )
        except StopIteration as stop:
            results.append(stop.value)
        yield segments


# ----------------------------------------------------------------------
# Lowering: symbolic ops -> replay rows
# ----------------------------------------------------------------------
#
# Replay rows are uniform 3-tuples (opcode, address_index, advance):
#   (1, a, adv)   demand load of addresses[a]
#   (2, a, adv)   software prefetch of addresses[a]
#   (3, a, 0)     the same prefetch's next line, addresses[a]
#   (0, 0, adv)   trailing pure compute (end of schedule)
# where adv is the straight-line compute block *preceding* the memory
# operation — switches, computes, and frame allocations merged into one
# pre-normalized clock advance. Merging is exact because the engine
# normalizes each compute's advance independently before the clock
# moves (integer arithmetic, order-free sum). The prefetch instruction's
# own issue compute is inlined in the replay handler (it sits between
# the translation and the fill, so it can never merge with neighbours).


def _advance(cycles: int, instructions: int, issue_width: int) -> int:
    """Clock advance of one compute charge (TMAM capacity normalization)."""
    floor = -(-instructions // issue_width)
    return cycles if cycles >= floor else floor


def _lower_rows(chunks: Iterable, cost_model) -> tuple:
    """Lower staged chunks to ``(op, address_index, advance)`` rows + totals.

    Instruction retirement and issue-slot accounting are *static* per
    schedule — every compute charge is known at staging time, and the
    prefetch issue charge is fixed per ``P`` row — so they are summed
    here once into ``(instructions_total, core_slots_total)`` instead
    of being re-accumulated on every replay.
    """
    issue_width = cost_model.issue_width

    def charge(cycles: int, instructions: int) -> tuple:
        return _advance(cycles, instructions, issue_width), instructions

    # (advance, instructions) of every non-memory op, keyed by the op;
    # each compute op is added the first time it is seen.
    charges = {
        ("SW", kind): charge(*getattr(cost_model, f"{kind}_switch"))
        for kind in ("coro", "amac", "gp")
    }
    charges[("F",)] = charge(
        cost_model.frame_alloc_cycles, cost_model.frame_alloc_instructions
    )
    pf_instructions = cost_model.prefetch_issue_instructions
    pf_advance = _advance(
        cost_model.prefetch_issue_cycles, pf_instructions, issue_width
    )
    rows: list = []
    append = rows.append
    pending_advance = 0
    instructions_total = 0
    advance_total = 0
    for op in chain.from_iterable(chunks):
        tag = op[0]
        if tag == "L":
            append((1, op[1], pending_advance))
            pending_advance = 0
        elif tag == "P":
            append((2, op[1], pending_advance))
            pending_advance = 0
            instructions_total += pf_instructions
            advance_total += pf_advance
        elif tag == "PL":
            append((3, op[1], 0))
        else:
            step_charge = charges.get(op)
            if step_charge is None:  # a "C" op not seen yet
                step_charge = charges[op] = charge(op[1], op[2])
            step, instructions = step_charge
            pending_advance += step
            instructions_total += instructions
            advance_total += step
    if pending_advance:
        append((0, 0, pending_advance))
    core_slots_total = issue_width * advance_total - instructions_total
    return rows, (instructions_total, core_slots_total)


#: In-process schedule memo: signature tuple -> (rows, totals).
_SCHEDULE_MEMO: dict = {}


def _persistent_cache():
    """The repro.perf result cache, when one is configured (may be None)."""
    try:
        from repro import perf
    except Exception:  # pragma: no cover - perf is always importable here
        return None
    return perf._config.cache


def _cost_signature(cost_model) -> tuple:
    """Every cost-model field a staged schedule or its lowering reads."""
    return (
        tuple(cost_model.coro_switch),
        tuple(cost_model.amac_switch),
        tuple(cost_model.gp_switch),
        (cost_model.frame_alloc_cycles, cost_model.frame_alloc_instructions),
        (cost_model.prefetch_issue_cycles, cost_model.prefetch_issue_instructions),
        cost_model.issue_width,
    )


def _schedule_rows(
    technique: str, group_size: int, shape: tuple, cost_model
) -> tuple:
    """Stage (or recall) the flattened schedule of one binary-search shape.

    Returns ``(rows, totals)`` where ``totals`` is the static
    ``(instructions, core_slots)`` accounting of the whole schedule.
    """
    signature = (technique, group_size, *shape, *_cost_signature(cost_model))
    staged = _SCHEDULE_MEMO.get(signature)
    if staged is not None:
        _STATS["schedule_cache_hits"] += 1
        return staged
    started = perf_counter()
    cache = _persistent_cache()
    key = None
    if cache is not None:
        key = cache.key(_schedule_rows, signature)
        if key is not None:
            hit, value = cache.lookup(key)
            if hit:
                _STATS["result_cache_hits"] += 1
                rows, totals = value
                staged = ([tuple(row) for row in rows], tuple(totals))
                _SCHEDULE_MEMO[signature] = staged
                _STATS["schedule_compile_s"] += perf_counter() - started
                return staged
    staged = _lower_rows(_search_chunks(technique, group_size, shape), cost_model)
    _SCHEDULE_MEMO[signature] = staged
    _STATS["compiled_schedules"] += 1
    if key is not None:
        cache.put(key, staged)
        _STATS["result_cache_stores"] += 1
    _STATS["schedule_compile_s"] += perf_counter() - started
    return staged


# ----------------------------------------------------------------------
# Probe parameterization: one pass computes every key's address stream
# ----------------------------------------------------------------------


#: Probe addresses (keys x depth) below which the probe recurrence and
#: the replay's line/page split run as scalar Python instead of numpy:
#: on a handful of keys numpy's per-step dispatch costs more than the
#: arithmetic. Serving batches (a few keys at depth ~19) sit below it,
#: bulk joins (hundreds of keys at depth ~28) far above.
SCALAR_ADDRESS_LIMIT = 512


def _probe_addresses(table, values, depth: int) -> tuple[list, list]:
    """Flat probe-address list (key-major) and per-key search results.

    Mirrors the shared recurrence every search variant runs: ``half``
    follows the table size alone, ``low`` advances per key when
    ``value_at(probe) <= value``. Identity arrays (the paper's
    microbenchmark fill) compare the probe itself, vectorized through
    numpy from :data:`SCALAR_ADDRESS_LIMIT` addresses up; any other
    table walks the same recurrence in Python via ``value_at``.
    """
    base = table.region.base
    element_size = table.element_size
    n = len(values)
    identity = getattr(table, "is_identity", False) and all(
        isinstance(value, (int, np.integer)) for value in values
    )
    if identity and n * depth >= SCALAR_ADDRESS_LIMIT:
        lookups = np.asarray(values, dtype=np.int64)
        low = np.zeros(n, dtype=np.int64)
        probes = np.empty((depth, n), dtype=np.int64)
        size = table.size
        for it in range(depth):
            half = size // 2
            probe = low + half
            probes[it] = probe
            low = np.where(probe <= lookups, probe, low)
            size -= half
        addresses = (probes.T * element_size + base).ravel().tolist()
        return addresses, low.tolist()
    halves = []
    size = table.size
    while size // 2 > 0:
        half = size // 2
        halves.append(half)
        size -= half
    addresses = []
    results = []
    append = addresses.append
    if identity:
        for value in values:
            value = int(value)
            low = 0
            for half in halves:
                probe = low + half
                append(base + probe * element_size)
                if probe <= value:
                    low = probe
            results.append(low)
        return addresses, results
    value_at = table.value_at
    for value in values:
        low = 0
        for half in halves:
            probe = low + half
            append(base + probe * element_size)
            if value_at(probe) <= value:
                low = probe
        results.append(low)
    return addresses, results


def _search_addresses(table, values, shape: tuple) -> tuple[list, list]:
    """Probe addresses and results of a binary-search job of ``shape``.

    A Main ``locate`` appends each key's verification address after the
    probe matrix, and maps misses to ``INVALID_CODE`` as
    ``locate_stream`` does.
    """
    _, depth, _, _, verify = shape
    addresses, lows = _probe_addresses(table, values, depth)
    if not verify:
        return addresses, lows
    address_of = table.address_of
    value_at = table.value_at
    addresses.extend([address_of(low) for low in lows])
    return addresses, [
        low if value_at(low) == value else INVALID_CODE
        for low, value in zip(lows, values)
    ]


# ----------------------------------------------------------------------
# Trace recording: the staging is checked against the live executor
# ----------------------------------------------------------------------


class _RecordingEngine(ExecutionEngine):
    """Engine that logs every event it executes (calibration runs only)."""

    def __init__(self, arch) -> None:
        # The staged shapes never read memory state, so the calibration
        # machine keeps the cost model but only a one-set L3.
        l3 = replace(arch.l3, size=arch.l3.associativity * arch.line_size)
        super().__init__(arch.replace(l3=l3))
        self.trace: list = []

    def compute(self, cycles, instructions):
        self.trace.append(("C", cycles, instructions))
        super().compute(cycles, instructions)

    def execute_load(self, event, ctx=None):
        self.trace.append(("L", event.addr, event.size))
        super().execute_load(event, ctx)

    def execute_prefetch(self, event):
        self.trace.append(("P", event.addr, event.size))
        return super().execute_prefetch(event)

    def execute_frame_alloc(self):
        self.trace.append(("F",))
        super().execute_frame_alloc()


#: Validation signatures already checked this process.
_VALIDATED: set = set()

#: Calibration tables: 1 KB of 4-byte elements -> search depth 8.
_CALIBRATION_BYTES = 1024

#: Calibration Delta: 229 entries in 48-byte nodes -> a three-level tree
#: whose last inner node holds one key and whose last leaf holds one entry.
_CALIBRATION_DELTA = (229 * 4, 48)


def _calibration_job(shape: str, n: int) -> BulkLookup:
    """``n`` lookups of ``shape`` on a small table, hits and misses mixed."""
    from repro.sim.allocator import AddressSpaceAllocator

    allocator = AddressSpaceAllocator()
    name = "compile-calibration"
    if shape == "sorted_array":
        from repro.indexes.sorted_array import int_array_of_bytes

        table = int_array_of_bytes(allocator, name, _CALIBRATION_BYTES)
        return BulkLookup.sorted_array(
            table, [(index * 97 + 13) % table.size for index in range(n)]
        )
    from repro.columnstore.dictionary import DeltaDictionary, MainDictionary

    if shape == "main_locate":
        # Even values only: odd literals miss.
        count = _CALIBRATION_BYTES // 4
        dictionary = MainDictionary.from_values(allocator, name, range(0, 2 * count, 2))
    else:
        nbytes, node_size = _CALIBRATION_DELTA
        dictionary = DeltaDictionary.implicit(
            allocator, name, nbytes, node_size=node_size
        )
    span = 2 * dictionary.n_values + 8
    return BulkLookup.locate(
        dictionary, [(index * 97 + 13) % span - 4 for index in range(n)]
    )


def _expand_expected(chunks: Iterable, addresses: list, cost) -> list:
    """What a :class:`_RecordingEngine` must log for staged ``chunks``."""
    expected: list = []
    append = expected.append
    for op in chain.from_iterable(chunks):
        tag = op[0]
        if tag == "L":
            append(("L", addresses[op[1]], op[2]))
        elif tag == "P":
            append(("P", addresses[op[1]], op[2]))
            append(("C", cost.prefetch_issue_cycles, cost.prefetch_issue_instructions))
        elif tag == "C":
            append(op)
        elif tag == "SW":
            append(("C", *getattr(cost, f"{op[1]}_switch")))
        elif tag == "F":
            append(("F",))
            append(("C", cost.frame_alloc_cycles, cost.frame_alloc_instructions))
        # "PL" is part of the prefetch before it: the engine logs one event.
    return expected


def _validate_staging(executor, shape: str, group_size: int, arch) -> None:
    """Record the generator scheduler once; the staged schedule must match it.

    Runs ``executor``'s generator scheduler on a small calibration job
    of ``shape`` under a :class:`_RecordingEngine` and compares its
    event stream — addresses, sizes, and compute charges included —
    against the staged ops expanded with the calibration addresses.
    Covers the schedule structure end to end: prologue allocations,
    refill timing, partial final generations, per-key epilogues, and
    the per-visit event mix.
    """
    technique = executor.schedule
    cost = arch.cost
    signature = (shape, technique, group_size, *_cost_signature(cost))
    if signature in _VALIDATED:
        return
    n = 2 * group_size + max(2, group_size // 2)  # 2 generations + a partial
    job = _calibration_job(shape, n)
    recorder = _RecordingEngine(arch)
    recorded_results = executor._run_generators(job, recorder, group_size)
    chunks, addresses, staged_results = _staged_chunks(
        technique, job, _search_table(job), group_size, arch.line_size
    )
    expected = _expand_expected(chunks, addresses, cost)
    if expected != recorder.trace or list(recorded_results) != staged_results:
        raise SimulationError(
            f"staged {technique!r} schedule for {shape} jobs "
            f"(group_size={group_size}) does not reproduce the recorded "
            f"generator trace; refusing to replay"
        )
    _VALIDATED.add(signature)
    _STATS["validations"] += 1


# ----------------------------------------------------------------------
# Replay: machine-specialized loops
# ----------------------------------------------------------------------
#
# For a fixed machine geometry (cache/TLB shapes, latencies, LFB
# capacity) every parameter of the replay is a *constant*, so the replay
# loop's source is generated with those constants folded in as literals
# and every helper (drain, fill start, page walk) inlined — no closure
# cells, no call overhead, branches on constants eliminated at
# generation time. The source is compiled once with ``exec`` and
# memoized per geometry signature. Every access touches exactly one
# cache line: layouts that can straddle take the generator fallback.

_IMPL_CACHE: dict = {}


def _drain_src(now: str, C: dict) -> str:
    """LFB drain + cache-install block (LineFillBuffers.drain inlined).

    Completions come off a min-heap of ``(completion, seq, line)``
    entries instead of scanning ``in_flight``. When several fills
    complete in one drain, installs happen in fill-*start* order
    (``seq``), which is exactly ``in_flight``'s dict insertion order —
    the order the live ``LineFillBuffers.drain`` uses.
    """
    def install(level: str) -> str:
        return f"""\
d_ways = {level}_sets[d_line % {C[level + '_n']}]
if d_line in d_ways:
    del d_ways[d_line]
elif LEN(d_ways) >= {C[level + '_a']}:
    for d_evict in d_ways:
        break
    del d_ways[d_evict]
    {level}_evictions += 1
d_ways[d_line] = None
{level}_installs += 1"""

    return f"""\
if {now} >= next_completion:
    d_entry = heappop(heap)
    if heap and heap[0][0] <= {now}:
        d_done = [d_entry]
        while heap and heap[0][0] <= {now}:
            d_done.append(heappop(heap))
        d_done.sort(key=BYSEQ)
    else:
        d_done = (d_entry,)
    for d_entry in d_done:
        d_line = d_entry[2]
        d_req = in_flight.pop(d_line)
        occ -= 1
        pool.append(d_req)
        d_src = d_req.source_level
        if d_src == "DRAM":
{_indent_text(install("l3"), "            ")}
            if not d_req.non_temporal:
{_indent_text(install("l2"), "                ")}
        elif d_src == "L3" and not d_req.non_temporal:
{_indent_text(install("l2"), "            ")}
{_indent_text(install("l1"), "        ")}
    next_completion = heap[0][0] if heap else INF"""


def _start_fill_src(line: str, now: str, nt: str, pf: str, C: dict) -> str:
    """Fill start (MemorySystem._start_fill inlined).

    Leaves ``fill_completion``, ``fill_source`` and ``f_start`` bound;
    the caller derives the issue stall from ``f_start - {now}``.
    """
    return f"""\
f_start = {now}
while occ >= {C["cap"]}:
    f_earliest = next_completion
    acquire_stall += f_earliest - f_start
    f_start = f_earliest
{_indent_text(_drain_src("f_start", C), "    ")}
f_ways = l2_sets[{line} % {C["l2_n"]}]
if f_ways.pop({line}, 0) is None:
    f_ways[{line}] = None
    l2_hits += 1
    fill_source = "L2"
    fill_completion = f_start + {C["l2_lat"]}
else:
    l2_misses += 1
    f_ways = l3_sets[{line} % {C["l3_n"]}]
    if f_ways.pop({line}, 0) is None:
        f_ways[{line}] = None
        l3_hits += 1
        fill_source = "L3"
        fill_completion = f_start + {C["l3_lat"]}
    else:
        l3_misses += 1
        fill_source = "DRAM"
        fill_completion = f_start + {C["dram"]}
if pool:
    f_req = pool.pop()
    f_req.line = {line}
    f_req.issue_cycle = f_start
    f_req.completion_cycle = fill_completion
    f_req.source_level = fill_source
    f_req.non_temporal = {nt}
    f_req.is_prefetch = {pf}
else:
    f_req = FillRequest({line}, f_start, fill_completion, fill_source, {nt}, {pf})
in_flight[{line}] = f_req
heappush(heap, (fill_completion, seq, {line}))
seq += 1
occ += 1
if fill_completion < next_completion:
    next_completion = fill_completion
fills_issued += 1
if occ > peak_occupancy:
    peak_occupancy = occ"""


def _translate_src(C: dict) -> str:
    """DTLB probe + STLB probe + page walk (Tlb.translate inlined).

    Binds ``t_ways`` to the DTLB set for ``vpn``; in the walk path the
    re-install checks of the live code are dropped because ``vpn`` is
    provably absent (the DTLB pop missed without mutating, the STLB pop
    returned a miss, and PTE cache traffic never touches the TLBs).
    """
    iw, stlb_lat, walk_base, ooo = C["iw"], C["stlb_lat"], C["walk_base"], C["ooo"]
    walk_l1_cycles = walk_base + C["l1_lat"]
    walk_l1_charged = max(walk_base, walk_l1_cycles - ooo)
    return f"""\
vpn = vpns[a]
t_ways = dtlb_sets[vpn % {C["dtlb_n"]}]
if t_ways.pop(vpn, 0) is None:
    t_ways[vpn] = None
    dtlb_hits += 1
else:
    w_stlb = stlb_sets[vpn % {C["stlb_n"]}]
    if w_stlb.pop(vpn, 0) is None:
        w_stlb[vpn] = None
        stlb_hits += 1
        if LEN(t_ways) >= {C["dtlb_a"]}:
            for t_evict in t_ways:
                break
            del t_ways[t_evict]
        t_ways[vpn] = None
        translation_stall += {stlb_lat}
        clock += {stlb_lat}
    else:
        probe_at = clock + {walk_base}
        pte_line = pte_lines[a]
{_indent_text(_drain_src("probe_at", C), "        ")}
        w_ways = l1_sets[pte_line % {C["l1_n"]}]
        if w_ways.pop(pte_line, 0) is None:
            w_ways[pte_line] = None
            l1_hits += 1
            walks_by_level["PW-L1"] = walks_by_level.get("PW-L1", 0) + 1
            walk_cycles_delta += {walk_l1_cycles}
            w_charged = {walk_l1_charged}
        else:
            l1_misses += 1
            w_req = in_flight.get(pte_line)
            if w_req is not None:
                w_req.non_temporal = False
                w_req.is_prefetch = False
                w_c = w_req.completion_cycle
                w_ready = w_c if w_c > probe_at else probe_at
                w_level = w_req.source_level
            else:
{_indent_text(_start_fill_src("pte_line", "probe_at", "False", "False", C), "                ")}
                w_ready = fill_completion
                w_level = fill_source
            w_cycles = {walk_base} + (w_ready - probe_at)
            w_bucket = "PW-" + w_level
            walks_by_level[w_bucket] = walks_by_level.get(w_bucket, 0) + 1
            walk_cycles_delta += w_cycles
            w_charged = w_cycles - {ooo}
            if w_charged < {walk_base}:
                w_charged = {walk_base}
        if LEN(w_stlb) >= {C["stlb_a"]}:
            for w_evict in w_stlb:
                break
            del w_stlb[w_evict]
        w_stlb[vpn] = None
        if LEN(t_ways) >= {C["dtlb_a"]}:
            for t_evict in t_ways:
                break
            del t_ways[t_evict]
        t_ways[vpn] = None
        translation_stall += w_charged
        clock += w_charged"""


def _issue_stall_src(C: dict) -> str:
    """Charge the LFB issue stall after an inlined fill start."""
    return """\
if f_start > clock:
    lfb_stall += f_start - clock
    clock = f_start"""


def _build_impl(C: dict):
    """Generate + compile the specialized replay loop for geometry ``C``."""
    iw, ooo = C["iw"], C["ooo"]
    l1_exposed = C["l1_lat"] - ooo
    if l1_exposed > 0:
        l1_hit_tail = f"""\
                exposed_stall += {l1_exposed}
                clock += {l1_exposed}
"""
    else:
        l1_hit_tail = ""
    source = f"""\
def _staged_replay(rows, lines, vpns, pte_lines, in_flight, heap, seq,
                   l1_sets, l2_sets, l3_sets, dtlb_sets, stlb_sets,
                   walks_by_level, FillRequest,
                   clock, next_completion, peak_occupancy,
                   INF=float("inf"), heappush=_heappush, heappop=_heappop,
                   BYSEQ=_byseq, LEN=len):
    occ = LEN(in_flight)
    pool = []
    exposed_stall = translation_stall = lfb_stall = 0
    dtlb_hits = stlb_hits = walk_cycles_delta = 0
    l1_hits = l1_misses = l1_installs = l1_evictions = 0
    l2_hits = l2_misses = l2_installs = l2_evictions = 0
    l3_hits = l3_misses = l3_installs = l3_evictions = 0
    fills_issued = acquire_stall = 0
    loads_l1 = loads_lfb = loads_l2 = loads_l3 = loads_dram = 0
    prefetch_count = prefetch_useless = 0
    for op, a, advance in rows:
        if advance:
            clock += advance
        if op == 1 or op == 2:  # the access's address translation
{_indent_text(_translate_src(C), "            ")}
        if op == 1:
{_indent_text(_drain_src("clock", C), "            ")}
            line = lines[a]
            ways = l1_sets[line % {C["l1_n"]}]
            if ways.pop(line, 0) is None:
                ways[line] = None
                l1_hits += 1
                loads_l1 += 1
{l1_hit_tail}                continue
            l1_misses += 1
            req = in_flight.get(line)
            if req is not None:
                req.non_temporal = False
                req.is_prefetch = False
                loads_lfb += 1
                exposed = req.completion_cycle - clock - {ooo}
                if exposed > 0:
                    exposed_stall += exposed
                    clock += exposed
                continue
{_indent_text(_start_fill_src("line", "clock", "False", "False", C), "            ")}
{_indent_text(_issue_stall_src(C), "            ")}
            if fill_source == "L2":
                loads_l2 += 1
            elif fill_source == "L3":
                loads_l3 += 1
            else:
                loads_dram += 1
            exposed = fill_completion - clock - {ooo}
            if exposed > 0:
                exposed_stall += exposed
                clock += exposed
        elif op:  # 2: a prefetch; 3: its next line (no translation, no issue)
            if op == 2:
                clock += {C["pf_adv"]}
{_indent_text(_drain_src("clock", C), "            ")}
            line = lines[a]
            prefetch_count += 1
            if line in l1_sets[line % {C["l1_n"]}] or line in in_flight:
                prefetch_useless += 1
            else:
{_indent_text(_start_fill_src("line", "clock", "True", "True", C), "                ")}
{_indent_text(_issue_stall_src(C), "                ")}
    return (clock, next_completion, peak_occupancy,
            exposed_stall, translation_stall, lfb_stall,
            dtlb_hits, stlb_hits, walk_cycles_delta,
            l1_hits, l1_misses, l1_installs, l1_evictions,
            l2_hits, l2_misses, l2_installs, l2_evictions,
            l3_hits, l3_misses, l3_installs, l3_evictions,
            fills_issued, acquire_stall,
            loads_l1, loads_lfb, loads_l2, loads_l3, loads_dram,
            prefetch_count, prefetch_useless)
"""
    namespace: dict = {
        "_heappush": heappush,
        "_heappop": heappop,
        "_byseq": itemgetter(1),
    }
    exec(compile(source, "<staged-replay>", "exec"), namespace)  # noqa: S102
    return namespace["_staged_replay"]


def _specialized_impl(engine: ExecutionEngine):
    """Memoized specialization for this engine's machine geometry."""
    cost = engine.cost
    memory = engine.memory
    tlb = memory.tlb
    dtlb, stlb = tlb._dtlb, tlb._stlb
    l1, l2, l3 = memory.l1, memory.l2, memory.l3
    iw = cost.issue_width
    pf_ins = cost.prefetch_issue_instructions
    pf_adv = _advance(cost.prefetch_issue_cycles, pf_ins, iw)
    C = {
        "iw": iw,
        "ooo": cost.ooo_hide,
        "walk_base": cost.page_walk_base_cycles,
        "stlb_lat": tlb._stlb_latency,
        "pf_adv": pf_adv,
        "pf_ins": pf_ins,
        "pf_core": iw * pf_adv - pf_ins,
        "l1_n": l1.n_sets, "l1_a": l1.associativity, "l1_lat": l1.latency,
        "l2_n": l2.n_sets, "l2_a": l2.associativity, "l2_lat": l2.latency,
        "l3_n": l3.n_sets, "l3_a": l3.associativity, "l3_lat": l3.latency,
        "dtlb_n": dtlb.n_sets, "dtlb_a": dtlb.associativity,
        "stlb_n": stlb.n_sets, "stlb_a": stlb.associativity,
        "cap": memory.lfbs.capacity,
        "dram": engine.arch.dram_latency + memory.extra_dram_latency,
    }
    key = tuple(sorted(C.items()))
    impl = _IMPL_CACHE.get(key)
    if impl is None:
        impl = _build_impl(C)
        _IMPL_CACHE[key] = impl
    return impl


def _replay(
    engine: ExecutionEngine, rows: list, totals: tuple, addresses: list
) -> None:
    """Replay a staged schedule through the geometry's specialized loop.

    Consumes ``addresses``: the list is emptied once split into lines,
    pages and page-table lines, so the loop runs with one copy alive.
    """
    memory = engine.memory
    line_size = memory.line_size
    tlb = memory.tlb
    page_size = tlb._page_size
    if len(addresses) < SCALAR_ADDRESS_LIMIT:
        lines = [address // line_size for address in addresses]
        vpns = [address // page_size for address in addresses]
        pte_lines = [(PAGE_TABLE_BASE + vpn * PTE_SIZE) // line_size for vpn in vpns]
    else:
        addresses_np = np.asarray(addresses, dtype=np.int64)
        lines = (addresses_np // line_size).tolist()
        vpns_np = addresses_np // page_size
        vpns = vpns_np.tolist()
        pte_lines = ((PAGE_TABLE_BASE + vpns_np * PTE_SIZE) // line_size).tolist()
        del addresses_np, vpns_np
    addresses.clear()
    lfbs = memory.lfbs
    # Seed the completion heap from fills already in flight; dict
    # insertion order is fill-start order, which the sequence numbers
    # preserve for same-cycle install ordering.
    in_flight = lfbs._in_flight
    heap = [
        (request.completion_cycle, index, line)
        for index, (line, request) in enumerate(in_flight.items())
    ]
    heapify(heap)
    entry_clock = engine.clock
    (clock, next_completion, peak_occupancy,
     exposed_stall, translation_stall, lfb_stall,
     dtlb_hits, stlb_hits, walk_cycles_delta,
     l1_hits, l1_misses, l1_installs, l1_evictions,
     l2_hits, l2_misses, l2_installs, l2_evictions,
     l3_hits, l3_misses, l3_installs, l3_evictions,
     fills_issued, acquire_stall,
     loads_l1, loads_lfb, loads_l2, loads_l3, loads_dram,
     prefetch_count, prefetch_useless) = _specialized_impl(engine)(
        rows, lines, vpns, pte_lines,
        in_flight, heap, len(heap),
        memory.l1._sets, memory.l2._sets, memory.l3._sets,
        tlb._dtlb._sets, tlb._stlb._sets,
        tlb.stats.walks_by_level, FillRequest,
        entry_clock, lfbs._next_completion, lfbs.peak_occupancy,
    )
    engine.clock = clock
    tmam = engine.tmam
    tmam.cycles += clock - entry_clock
    instructions_total, core_slots_total = totals
    tmam.instructions += instructions_total
    slots = tmam.slots
    slots["Retiring"] += instructions_total
    slots["Core"] += core_slots_total
    # Every memory-stall charge pessimizes issue slots at full width, so
    # the Memory slot total is a product, not a separate accumulator.
    memory_stall = exposed_stall + translation_stall + lfb_stall
    slots["Memory"] += engine.cost.issue_width * memory_stall
    tmam.memory_stall_cycles += memory_stall
    tmam.translation_stall_cycles += translation_stall
    tmam.lfb_stall_cycles += lfb_stall
    by_level = memory.stats.loads_by_level
    by_level["L1"] += loads_l1
    by_level["LFB"] += loads_lfb
    by_level["L2"] += loads_l2
    by_level["L3"] += loads_l3
    by_level["DRAM"] += loads_dram
    memory.stats.prefetches += prefetch_count
    memory.stats.prefetch_useless += prefetch_useless
    tlb_stats = tlb.stats
    tlb_stats.dtlb_hits += dtlb_hits
    tlb_stats.stlb_hits += stlb_hits
    tlb_stats.walk_cycles += walk_cycles_delta
    l1 = memory.l1
    l1.stats.hits += l1_hits
    l1.stats.misses += l1_misses
    l1.stats.installs += l1_installs
    l1.stats.evictions += l1_evictions
    l2 = memory.l2
    l2.stats.hits += l2_hits
    l2.stats.misses += l2_misses
    l2.stats.installs += l2_installs
    l2.stats.evictions += l2_evictions
    l3 = memory.l3
    l3.stats.hits += l3_hits
    l3.stats.misses += l3_misses
    l3.stats.installs += l3_installs
    l3.stats.evictions += l3_evictions
    lfbs.fills_issued += fills_issued
    lfbs.issue_stall_cycles += acquire_stall
    lfbs.peak_occupancy = peak_occupancy
    lfbs._next_completion = next_completion


# ----------------------------------------------------------------------
# The executor hook
# ----------------------------------------------------------------------


def _search_table(tasks: BulkLookup):
    """The sorted array ``tasks`` binary-searches, or ``None``.

    Sorted-array jobs search their target and Main locates their
    dictionary's array; a Delta locate walks a tree instead.
    """
    if tasks.kind == SORTED_ARRAY:
        return tasks.target
    # Imported here: the columnstore builds on the executor framework.
    from repro.columnstore.dictionary import MainDictionary

    if isinstance(tasks.target, MainDictionary):
        return tasks.target.array
    return None


def _staged_chunks(
    technique: str, tasks: BulkLookup, table, group_size: int, line_size: int
) -> tuple:
    """``(chunks, addresses, results)`` for one job, unlowered.

    A Delta locate (``table`` is ``None``) steps its streams as the
    chunks are consumed, filling ``addresses`` and ``results`` as it
    goes; consuming them raises :class:`_LineStraddle` when an access
    straddles a cache line.
    """
    if table is not None:
        shape = _search_shape(tasks, table)
        chunks = _search_chunks(technique, group_size, shape)
        return (chunks, *_search_addresses(table, tasks.inputs, shape))
    addresses: list = []
    results: list = []
    programs = _stepped_programs(
        tasks, technique == "coro", line_size, addresses, results
    )
    chunks = _interleave(technique, programs, len(tasks.inputs), group_size)
    return chunks, addresses, results


def _stage(
    technique: str, tasks: BulkLookup, table, group_size: int, engine
) -> tuple | None:
    """``(rows, totals, addresses, results)`` for one job.

    Binary searches of ``table`` recall their shape's memoized schedule
    and compute the probe addresses; Delta locates (``table`` is
    ``None``) stage from their stepped programs. ``None`` means an
    access straddles a cache line.
    """
    if table is not None:
        shape = _search_shape(tasks, table)
        rows, totals = _schedule_rows(technique, group_size, shape, engine.cost)
        return (rows, totals, *_search_addresses(table, tasks.inputs, shape))
    started = perf_counter()
    chunks, addresses, results = _staged_chunks(
        technique, tasks, None, group_size, engine.memory.line_size
    )
    try:
        rows, totals = _lower_rows(chunks, engine.cost)
    except _LineStraddle:
        return None
    _STATS["compiled_schedules"] += 1
    _STATS["schedule_compile_s"] += perf_counter() - started
    return rows, totals, addresses, results


def replay_staged(executor, tasks: BulkLookup, engine: ExecutionEngine,
                  group_size: int) -> list | None:
    """Run ``tasks`` by replaying ``executor``'s staged schedule.

    Returns the results, or ``None`` — with the reason counted — when
    the shape does not compile and the caller must run its generator
    scheduler instead.
    """
    if not tasks.inputs:
        return []  # every generator scheduler returns [] event-free
    table = _search_table(tasks)
    reason = _fallback_reason(executor, tasks, table, engine)
    if reason is None:
        shape = tasks.kind
        if shape == LOCATE:
            shape = "delta_locate" if table is None else "main_locate"
        _validate_staging(executor, shape, group_size, engine.arch)
        started = perf_counter()
        compile_s = _STATS["schedule_compile_s"]
        staged = _stage(executor.schedule, tasks, table, group_size, engine)
        if staged is None:
            reason = "line_straddle"
    if reason is not None:
        _count_fallback(executor.name, reason)
        return None
    rows, totals, addresses, results = staged
    _replay(engine, rows, totals, addresses)
    # Staging books its own time; the rest of the call is replay.
    _STATS["replay_s"] += (
        perf_counter() - started - (_STATS["schedule_compile_s"] - compile_s)
    )
    _STATS["replays"] += 1
    return results


def _fallback_reason(
    executor, tasks: BulkLookup, table, engine: ExecutionEngine
) -> str | None:
    if tasks.kind not in (SORTED_ARRAY, LOCATE):
        return "workload_kind"  # programs that may read a prefetch's outcome
    if tasks.kind == LOCATE and table is not None and executor.schedule == "sequential":
        return "speculative"  # the sequential Main locate runs the std search
    if engine.tracer.enabled:
        return "tracer"
    if type(engine) is not ExecutionEngine:
        return "engine_subclass"
    if table is None:
        return None  # Delta straddles show up while its programs are stepped
    if search_depth(table.size) < 1:
        return "shallow_table"
    element_size = table.element_size
    if engine.memory.line_size % element_size or table.region.base % element_size:
        return "line_straddle"
    return None
