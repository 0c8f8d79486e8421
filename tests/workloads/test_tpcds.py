"""Tests for the TPC-DS Q8-style workload synthesizer."""

import pytest

from repro.config import HASWELL
from repro.errors import WorkloadError
from repro.sim import ExecutionEngine
from repro.sim.allocator import AddressSpaceAllocator
from repro.workloads.tpcds import Q8_PREDICATE_COUNT, make_q8_workload


class TestQ8Workload:
    def test_default_shape(self):
        workload = make_q8_workload(AddressSpaceAllocator(), n_rows=2_000)
        assert len(workload.predicates) == Q8_PREDICATE_COUNT
        assert workload.table.n_rows == 2_000
        assert all(0 <= z < 100_000 for z in workload.predicates)

    def test_deterministic(self):
        a = make_q8_workload(AddressSpaceAllocator(), n_rows=500, seed=7)
        b = make_q8_workload(AddressSpaceAllocator(), n_rows=500, seed=7)
        assert a.predicates == b.predicates
        assert a.expected_matches == b.expected_matches

    def test_expected_matches_agree_with_query(self):
        workload = make_q8_workload(
            AddressSpaceAllocator(), n_rows=1_500, n_predicates=50, seed=3
        )
        results = workload.table.query_in(
            ExecutionEngine(HASWELL), "ca_zip", workload.predicates,
            strategy="interleaved",
        )
        n_found = sum(rows.size for rows in results.values())
        assert n_found == workload.expected_matches

    def test_zero_overlap_matches_nothing(self):
        workload = make_q8_workload(
            AddressSpaceAllocator(), n_rows=300, n_predicates=20, overlap=0.0
        )
        assert workload.expected_matches == 0

    def test_full_overlap_predicates_all_present(self):
        workload = make_q8_workload(
            AddressSpaceAllocator(), n_rows=3_000, n_predicates=30, overlap=1.0
        )
        assert workload.expected_matches >= 30  # every predicate hits >= 1 row

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            make_q8_workload(AddressSpaceAllocator(), n_rows=0)
        with pytest.raises(WorkloadError):
            make_q8_workload(AddressSpaceAllocator(), n_rows=10, overlap=1.5)
