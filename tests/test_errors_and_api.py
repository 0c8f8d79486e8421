"""Tests for the exception hierarchy and the public package surface."""

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "ConfigurationError",
            "SimulationError",
            "AddressError",
            "AllocationError",
            "SchedulerError",
            "CoroutineStateError",
            "IndexStructureError",
            "KeyNotFoundError",
            "ColumnStoreError",
            "WorkloadError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_specific_parents(self):
        assert issubclass(errors.AddressError, errors.SimulationError)
        assert issubclass(errors.AllocationError, errors.SimulationError)
        assert issubclass(errors.CoroutineStateError, errors.SchedulerError)
        assert issubclass(errors.KeyNotFoundError, errors.IndexStructureError)

    def test_one_except_catches_everything(self):
        from repro.sim.allocator import AddressSpaceAllocator

        with pytest.raises(repro.ReproError):
            AddressSpaceAllocator().allocate("x", -1)


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        major, minor, patch = repro.__version__.split(".")
        assert int(major) >= 1

    def test_key_entry_points_callable(self):
        assert callable(repro.run_interleaved)
        assert callable(repro.binary_search_coro)
        assert callable(repro.in_predicate_plan)

    def test_subpackage_alls_resolve(self):
        import repro.analysis as analysis
        import repro.columnstore as columnstore
        import repro.indexes as indexes
        import repro.interleaving as interleaving
        import repro.sim as sim
        import repro.workloads as workloads

        for module in (analysis, columnstore, indexes, interleaving, sim, workloads):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
