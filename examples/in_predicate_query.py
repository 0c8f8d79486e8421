#!/usr/bin/env python3
"""IN-predicate queries over a dictionary-encoded column store.

Recreates the paper's motivating scenario (Figure 1): a TPC-DS-Q8-style
IN-predicate query over a dictionary-encoded INTEGER column, with the
dictionary swept from cache-resident to several times the LLC. The
encode phase (value -> code lookups, an index join) dominates once the
dictionary outgrows the cache; interleaving its lookups makes the
response time robust.

Run:  python examples/in_predicate_query.py
"""

from repro import HASWELL, AddressSpaceAllocator, ExecutionEngine
from repro.analysis import format_size, measure_query
from repro.workloads.tpcds import make_q8_workload

DICT_SIZES = [1 << 20, 16 << 20, 64 << 20, 256 << 20]
N_PREDICATES = 1_000


def q8_demo() -> None:
    """Run real Q8 end to end on the column-store substrate."""
    workload = make_q8_workload(AddressSpaceAllocator(), n_rows=20_000, seed=0)
    engine = ExecutionEngine(HASWELL)
    results = workload.table.query_in(
        engine, "ca_zip", workload.predicates, strategy="interleaved"
    )
    found = sum(rows.size for rows in results.values())
    print(f"TPC-DS Q8 style: {len(workload.predicates)} predicate zips over "
          f"{workload.table.n_rows} rows -> {found} matching rows "
          f"(expected {workload.expected_matches})")


def size_sweep() -> None:
    """Figure-1-style sweep: Main store, sequential vs interleaved."""
    print(f"\n{'dict size':>10} {'sequential':>12} {'interleaved':>12} {'speedup':>8}")
    for size in DICT_SIZES:
        seq = measure_query(
            size, "main", "sequential", n_predicates=N_PREDICATES, n_rows=500_000
        )
        inter = measure_query(
            size, "main", "interleaved", n_predicates=N_PREDICATES, n_rows=500_000
        )
        print(
            f"{format_size(size):>10} {seq.response_ms:10.2f}ms "
            f"{inter.response_ms:10.2f}ms {seq.response_ms / inter.response_ms:7.2f}x"
        )
    print("\nThe sequential curve climbs once the dictionary outgrows the "
          f"{format_size(HASWELL.l3.size)} LLC; the interleaved one barely moves.")


if __name__ == "__main__":
    q8_demo()
    size_sweep()
