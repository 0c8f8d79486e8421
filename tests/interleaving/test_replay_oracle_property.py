"""Property test: staged replay is bit-identical to the generator oracle.

The golden tests pin replay at a handful of 16 MB Haswell points. This
one draws the machine and the workload: cache and TLB geometry,
latencies, line-fill-buffer count and page size; table bytes and
element type; technique and group size; a cold engine or one warmed by
an earlier batch (fills possibly still in flight); and a fault-perturbed
memory system (extra DRAM latency, a shrunken LFB pool). For every draw
the registry executor and :func:`~repro.interleaving.generator_oracle`
run the same batch on identically prepared engines, and the results,
the clock, :meth:`~repro.sim.engine.ExecutionEngine.snapshot` and the
whole metrics tree must match exactly. Shapes the schedule does not
cover must take the counted fallback instead.

The same oracle covers the query path's dictionary ``locate``: Main
dictionaries (materialized or implicit, integer or string) and Delta
dictionaries (materialized or implicit CSB+-trees of drawn node and
element sizes), present and absent literals, sequential and CORO at a
drawn group size. A stream that reads its prefetch's outcome must never
be staged.

``pytest --hypothesis-profile=thorough`` runs a larger randomized
search (see ``tests/hypothesis_profiles.py``).
"""

import json

from hypothesis import assume, event, given, strategies as st

from repro.columnstore.dictionary import DeltaDictionary, MainDictionary
from repro.config import HASWELL, CacheSpec, TlbSpec
from repro.indexes.binary_search import binary_search_coro_conditional
from repro.indexes.sorted_array import SortedIntArray, int_array_of_bytes
from repro.interleaving import (
    BulkLookup,
    compiled_stats,
    generator_oracle,
    get_executor,
    reset_compiled_stats,
)
from repro.interleaving.compiled import search_depth
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import ExecutionEngine
from repro.workloads.generators import make_table
from tests.hypothesis_profiles import property_settings

TECHNIQUES = ("sequential", "Baseline", "GP", "AMAC", "CORO")
LINE = HASWELL.line_size

CI = property_settings(max_examples=60)


@st.composite
def machines(draw):
    def cache(name, max_sets, latencies):
        sets = draw(st.integers(1, max_sets))
        ways = draw(st.integers(1, 8))
        return CacheSpec(name, sets * ways * LINE, ways, draw(latencies))

    def tlb(name, max_sets, latencies):
        ways = draw(st.integers(1, 8))
        entries = draw(st.integers(1, max_sets)) * ways
        return TlbSpec(name, entries, ways, draw(latencies))

    return HASWELL.replace(
        page_size=draw(st.sampled_from((4096, 8192, 65536))),
        # L1 latencies beyond the out-of-order window (12) expose L1 hits.
        l1d=cache("L1D", 16, st.integers(1, 16)),
        l2=cache("L2", 64, st.integers(6, 24)),
        l3=cache("L3", 512, st.integers(20, 60)),
        dram_latency=draw(st.integers(60, 320)),
        n_line_fill_buffers=draw(st.integers(1, 12)),
        dtlb=tlb("DTLB", 8, st.just(0)),
        stlb=tlb("STLB", 32, st.integers(1, 10)),
    )


@st.composite
def tables(draw, page_size):
    allocator = AddressSpaceAllocator(page_size=page_size)
    kind = draw(st.sampled_from(("int", "string", "wide", "explicit")))
    if kind == "explicit":
        # Non-implicit values with duplicates: the pure-Python probe path.
        values = sorted(draw(st.lists(st.integers(0, 500), min_size=1, max_size=300)))
        return SortedIntArray.from_values(allocator, "prop", values)
    if kind == "wide":
        element_size = draw(st.sampled_from((8, 24, 32, 48, 64, 128)))
        n = draw(st.integers(1, 4_000))
        return int_array_of_bytes(allocator, "prop", n * element_size, element_size)
    nbytes = draw(st.integers(16, 1 << 18))
    return make_table(allocator, "prop", nbytes, kind)


@st.composite
def lookups(draw, table, min_size=0, max_size=60):
    indexes = draw(
        st.lists(st.integers(0, table.size - 1), min_size=min_size, max_size=max_size)
    )
    values = [table.value_at(index) for index in indexes]
    if isinstance(table.value_at(0), int):
        # Misses on both sides of the domain.
        edges = (-5, table.value_at(table.size - 1) + 3)
        values += draw(st.lists(st.sampled_from(edges), max_size=3))
    return values


@st.composite
def cases(draw):
    arch = draw(machines())
    table = draw(tables(arch.page_size))
    return {
        "arch": arch,
        "table": table,
        "technique": draw(st.sampled_from(TECHNIQUES)),
        "group_size": draw(st.integers(1, 12)),
        "warm": draw(
            st.none()
            | lookups(table, max_size=30).map(
                lambda values: BulkLookup.sorted_array(table, values)
            )
        ),
        "settle": draw(st.booleans()),
        "extra_dram": draw(st.sampled_from((0, 0, 40, 300))),
        "lfb_capacity": draw(st.none() | st.integers(1, 4)),
        "values": draw(lookups(table, min_size=1)),
    }


def prepared_engine(case):
    """A fresh engine in the drawn state: warm or cold, perturbed or not."""
    engine = ExecutionEngine(case["arch"])
    if case["warm"] is not None:
        generator_oracle("CORO").run(case["warm"], engine, group_size=4)
        if case["settle"]:
            engine.settle()
    engine.memory.extra_dram_latency = case["extra_dram"]
    if case["lfb_capacity"] is not None:
        engine.memory.lfbs.set_capacity(case["lfb_capacity"])
    return engine


def state(engine, results):
    return (
        results,
        engine.clock,
        engine.snapshot(),
        json.dumps(engine.metrics.snapshot(), sort_keys=True),
    )


def run_both(case, tasks, technique):
    """Registry and oracle runs of ``tasks``: compiled stats of the former.

    Asserts that results, clock, snapshot and metrics tree match.
    """
    group_size = case["group_size"]
    oracle_engine = prepared_engine(case)
    expected = generator_oracle(technique).run(
        tasks, oracle_engine, group_size=group_size
    )
    engine = prepared_engine(case)
    reset_compiled_stats()
    got = get_executor(technique).run(tasks, engine, group_size=group_size)
    stats = compiled_stats()
    assert state(engine, got) == state(oracle_engine, expected)
    return stats


@CI
@given(case=cases())
def test_staged_replay_matches_generator_oracle(case):
    tasks = BulkLookup.sorted_array(case["table"], case["values"])
    stats = run_both(case, tasks, case["technique"])
    table = case["table"]
    element_size = table.element_size
    if search_depth(table.size) < 1:
        assert stats["fallbacks_by_reason"] == {"shallow_table": 1}
    elif LINE % element_size or table.region.base % element_size:
        assert stats["fallbacks_by_reason"] == {"line_straddle": 1}
    else:
        assert stats["replays"] == 1 and stats["fallbacks"] == 0


@CI
@given(case=cases())
def test_streams_reading_the_prefetch_outcome_are_never_staged(case):
    # binary_search_coro_conditional suspends only when its prefetch
    # missed: its event list depends on memory state, so no schedule
    # staged ahead of the run could reproduce it.
    table = case["table"]
    tasks = BulkLookup.stream(
        lambda value, interleave: binary_search_coro_conditional(
            table, value, interleave
        ),
        case["values"],
    )
    stats = run_both(case, tasks, "CORO")
    assert stats["replays"] == 0
    assert stats["fallbacks_by_reason"] == {"workload_kind": 1}


# ----------------------------------------------------------------------
# Dictionary locates: the query path's encode
# ----------------------------------------------------------------------


@st.composite
def dictionaries(draw, page_size):
    allocator = AddressSpaceAllocator(page_size=page_size)
    store = draw(st.sampled_from(("main", "main-string", "delta")))
    implicit = draw(st.booleans())
    if store == "main-string":
        if implicit:
            nbytes = draw(st.integers(16, 1 << 16))
            return MainDictionary.implicit_string(allocator, "prop", nbytes)
        words = draw(
            st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=200)
        )
        return MainDictionary.from_string_values(allocator, "prop", words)
    if store == "main":
        # 24-byte elements straddle cache lines: the counted fallback.
        element_size = draw(st.sampled_from((4, 8, 24)))
        if implicit:
            n = draw(st.integers(1, 4_000))
            return MainDictionary.implicit(
                allocator, "prop", n * element_size, element_size
            )
        values = draw(st.lists(st.integers(-1_000, 1_000), min_size=1, max_size=300))
        return MainDictionary.from_values(allocator, "prop", values, element_size)
    # Wider dictionary entries may straddle a line where a leaf's 4-byte
    # code slots put them; node sizes leave room for two entries.
    element_size = draw(st.sampled_from((4, 4, 8, 16)))
    node_size = draw(
        st.sampled_from(
            [n for n in (40, 48, 64, 72, 128, 256) if n >= 16 + 4 * element_size]
        )
    )
    if implicit:
        n = draw(st.integers(1, 5_000))
        return DeltaDictionary.implicit(
            allocator, "prop", n * element_size, element_size, node_size
        )
    values = draw(
        st.lists(st.integers(-1_000, 1_000), min_size=1, max_size=300, unique=True)
    )
    return DeltaDictionary.from_values(
        allocator, "prop", values, element_size, node_size
    )


@st.composite
def literals(draw, dictionary, min_size=0, max_size=40):
    """Present literals (drawn codes) plus misses on both sides."""
    codes = draw(st.lists(st.integers(0, dictionary.n_values - 1), max_size=max_size))
    values = [dictionary.extract(code) for code in codes]
    sample = dictionary.extract(0)
    if isinstance(sample, bytes):
        misses = (b"", b"\xff" * 17, sample + b"\x00")
    else:
        misses = (-5_000, 5_000 + dictionary.n_values, sample + 1)
    values += draw(st.lists(st.sampled_from(misses), max_size=4))
    assume(len(values) >= min_size)
    return values


@st.composite
def locate_cases(draw):
    arch = draw(machines())
    dictionary = draw(dictionaries(arch.page_size))
    return {
        "arch": arch,
        "dictionary": dictionary,
        "technique": draw(st.sampled_from(("sequential", "CORO"))),
        "group_size": draw(st.integers(1, 12)),
        "warm": draw(
            st.none()
            | literals(dictionary, max_size=20).map(
                lambda values: BulkLookup.locate(dictionary, values)
            )
        ),
        "settle": draw(st.booleans()),
        "extra_dram": draw(st.sampled_from((0, 0, 40, 300))),
        "lfb_capacity": draw(st.none() | st.integers(1, 4)),
        "values": draw(literals(dictionary, min_size=1)),
    }


@CI
@given(case=locate_cases())
def test_dictionary_locate_replay_matches_generator_oracle(case):
    dictionary = case["dictionary"]
    technique = case["technique"]
    stats = run_both(case, BulkLookup.locate(dictionary, case["values"]), technique)
    path = "replayed" if stats["replays"] else ", ".join(stats["fallbacks_by_reason"])
    event(f"{type(dictionary).__name__} {technique}: {path}")
    if isinstance(dictionary, MainDictionary):
        table = dictionary.array
        element_size = table.element_size
        if technique == "sequential":
            # The sequential Main locate is the speculative std search.
            assert stats["fallbacks_by_reason"] == {"speculative": 1}
        elif search_depth(table.size) < 1:
            assert stats["fallbacks_by_reason"] == {"shallow_table": 1}
        elif LINE % element_size or table.region.base % element_size:
            assert stats["fallbacks_by_reason"] == {"line_straddle": 1}
        else:
            assert stats["replays"] == 1 and stats["fallbacks"] == 0
    elif stats["fallbacks"]:
        assert stats["fallbacks_by_reason"] == {"line_straddle": 1}
        assert dictionary.element_size > 4
    else:
        assert stats["replays"] == 1
