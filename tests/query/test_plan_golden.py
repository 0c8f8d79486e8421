"""Golden-number regression: the plan-backed query pinned across refactors.

``measure_query`` runs the IN-predicate query as a ``repro.query``
operator plan (:func:`repro.query.in_predicate_plan`). These values were
captured from the original two-phase encode-then-scan implementation
(n_predicates=200, group_size=6, seed 0, in-cache and DRAM-resident
dictionary sizes). Every (store, strategy) combination's
total/locate/scan cycle split must stay bit-identical: the plan charges
exactly the events the two-phase routine charged, in the same order,
settling inside the same window. If a change legitimately alters the
cost model, recapture these numbers in the same commit and say why.
"""

import pytest

from repro.analysis.experiments import measure_query

N_PREDICATES = 200
GROUP_SIZE = 6

#: (store, strategy, dict_bytes) -> (total, locate, scan) cycles.
GOLDEN_QUERY_CYCLES = {
    ("main", "sequential", 1 << 20): (364_025, 109_065, 180_000),
    ("main", "sequential", 8 << 20): (402_119, 148_019, 180_000),
    ("main", "interleaved", 1 << 20): (398_411, 143_451, 180_000),
    ("main", "interleaved", 8 << 20): (445_720, 191_620, 180_000),
    ("main", "gp", 1 << 20): (326_091, 71_131, 180_000),
    ("main", "gp", 8 << 20): (345_655, 91_555, 180_000),
    ("main", "amac", 1 << 20): (400_775, 145_815, 180_000),
    ("main", "amac", 8 << 20): (449_278, 195_178, 180_000),
    ("delta", "sequential", 1 << 20): (337_318, 82_198, 180_000),
    ("delta", "sequential", 8 << 20): (613_709, 359_629, 180_000),
    ("delta", "interleaved", 1 << 20): (348_302, 93_182, 180_000),
    ("delta", "interleaved", 8 << 20): (378_002, 123_922, 180_000),
}


class TestGoldenQueryCycles:
    @pytest.mark.parametrize(
        "store,strategy,dict_bytes", sorted(GOLDEN_QUERY_CYCLES)
    )
    def test_plan_cycles_bit_identical_to_legacy(self, store, strategy, dict_bytes):
        point = measure_query(
            dict_bytes,
            store,
            strategy,
            n_predicates=N_PREDICATES,
            group_size=GROUP_SIZE,
        )
        total, locate, scan = GOLDEN_QUERY_CYCLES[(store, strategy, dict_bytes)]
        assert point.total_cycles == total
        assert point.locate_cycles == locate
        assert point.scan_cycles == scan
        # The "other" phase (plan preparation + materialization) is the
        # remainder; pinning all three pins it too, but make the split
        # explicit for the next reader.
        assert point.total_cycles - point.locate_cycles - point.scan_cycles == (
            total - locate - scan
        )
