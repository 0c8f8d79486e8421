"""Tests for the exemplar histogram and the canonical nearest-rank percentile."""

import math
import random

import pytest

from repro.errors import SimulationError
from repro.obs.hist import (
    BUCKETS_PER_OCTAVE,
    DEFAULT_N_BUCKETS,
    Exemplar,
    ExemplarHistogram,
    exemplar_from_dict,
    nearest_rank,
)


class TestNearestRank:
    def test_pinned_equivalent_to_the_historic_ceil_rank_formula(self):
        """The dedup contract: every caller that hand-rolled nearest-rank
        (service report, load generator, chaos benchmark) now delegates
        here, so this implementation must be bit-identical to the
        formula they used — rank = ceil(n*q/100), clamped to >= 1."""
        rng = random.Random(7)
        for trial in range(200):
            n = rng.randint(1, 400)
            values = sorted(rng.randint(0, 10**6) for _ in range(n))
            q = rng.choice([1, 25, 50, 90, 95, 99, 99.9, 100, rng.uniform(0.1, 100)])
            rank = max(1, math.ceil(len(values) * q / 100))
            assert nearest_rank(values, q) == values[rank - 1], (n, q)

    def test_known_values(self):
        values = list(range(1, 101))
        assert nearest_rank(values, 50) == 50
        assert nearest_rank(values, 95) == 95
        assert nearest_rank(values, 99) == 99
        assert nearest_rank(values, 100) == 100
        assert nearest_rank([7], 99) == 7
        assert nearest_rank([], 50) == 0

    def test_rejects_out_of_range_q(self):
        with pytest.raises(SimulationError):
            nearest_rank([1, 2], 0)
        with pytest.raises(SimulationError):
            nearest_rank([1, 2], 101)


class TestExemplarHistogram:
    def test_bucket_bounds_are_fixed_quarter_octaves(self):
        hist = ExemplarHistogram()
        assert hist.n_buckets == DEFAULT_N_BUCKETS
        # Bucket 0 is [0, 1); bucket i >= 1 is [2^((i-1)/4), 2^(i/4)).
        assert hist.bucket_index(0) == 0
        assert hist.bucket_index(1) == 1
        for value in (1, 3, 17, 1000, 12345, 10**7):
            index = hist.bucket_index(value)
            low, high = hist.bucket_bounds(index)
            assert low <= value < high, (value, index, low, high)
        # The same value maps to the same bucket in any histogram — the
        # bounds are a pure function of the bucket count.
        assert ExemplarHistogram().bucket_index(12345) == hist.bucket_index(12345)
        # Out-of-range values clamp into the top bucket, never raise.
        assert hist.bucket_index(2**200) == hist.n_buckets - 1
        with pytest.raises(SimulationError):
            hist.bucket_index(-1)

    def test_buckets_per_octave(self):
        hist = ExemplarHistogram()
        # Doubling a value advances exactly BUCKETS_PER_OCTAVE buckets.
        assert (
            hist.bucket_index(4096) - hist.bucket_index(2048)
            == BUCKETS_PER_OCTAVE
        )

    def test_observe_keeps_the_worst_exemplar_per_bucket(self):
        hist = ExemplarHistogram()
        # 1030 and 1100 share the [2^10, 2^10.25) bucket; 1100 is worse.
        assert hist.bucket_index(1030) == hist.bucket_index(1100)
        hist.observe(1030, "req-a")
        hist.observe(1100, "req-b")
        hist.observe(1050, "req-c")
        (exemplar,) = hist.exemplars()
        assert exemplar == Exemplar(
            bucket=hist.bucket_index(1100), value=1100, trace_id="req-b"
        )
        assert hist.count == 3
        assert hist.total == 3180
        assert hist.mean == pytest.approx(1060)

    def test_exemplar_for_walks_cumulative_counts(self):
        hist = ExemplarHistogram()
        for value in (10, 10, 10, 10, 10, 10, 10, 10, 10, 5000):
            hist.observe(value, f"req-{value}")
        # p50 sits among the ten cheap observations; p100 is the outlier.
        assert hist.exemplar_for(50).trace_id == "req-10"
        assert hist.exemplar_for(100).trace_id == "req-5000"
        assert hist.percentile_bucket(100) == hist.bucket_index(5000)

    def test_empty_histogram(self):
        hist = ExemplarHistogram()
        assert hist.exemplar_for(99) is None
        assert hist.percentile_bucket(99) is None
        assert hist.mean == 0.0
        assert hist.exemplars() == []

    def test_needs_two_buckets(self):
        with pytest.raises(SimulationError):
            ExemplarHistogram(n_buckets=1)

    def test_as_dict_round_trips_counts_and_exemplars(self):
        hist = ExemplarHistogram()
        rng = random.Random(3)
        for i in range(100):
            hist.observe(rng.randint(0, 100_000), f"req-{i:05d}")
        record = hist.as_dict()
        assert record["count"] == 100
        assert sum(record["counts"]) == 100
        assert record["buckets_per_octave"] == BUCKETS_PER_OCTAVE
        assert record["n_buckets"] == hist.n_buckets
        for entry in record["exemplars"]:
            assert record["counts"][entry["bucket"]] > 0


class TestExemplarFromDict:
    def test_matches_the_live_walk_for_every_percentile(self):
        hist = ExemplarHistogram()
        rng = random.Random(17)
        for i in range(250):
            hist.observe(rng.randint(0, 500_000), f"req-{i:05d}")
        record = hist.as_dict()
        for q in (1, 10, 50, 90, 95, 99, 99.9, 100):
            assert exemplar_from_dict(record, q) == hist.exemplar_for(q), q

    def test_empty_record_returns_none(self):
        assert exemplar_from_dict(ExemplarHistogram().as_dict(), 99) is None

    def test_rejects_out_of_range_q(self):
        hist = ExemplarHistogram()
        hist.observe(10, "req-x")
        with pytest.raises(SimulationError):
            exemplar_from_dict(hist.as_dict(), 0)

    def test_missing_exemplar_entry_is_an_error(self):
        hist = ExemplarHistogram()
        hist.observe(10, "req-x")
        record = hist.as_dict()
        record["exemplars"] = []  # corrupt: counts say the bucket is live
        with pytest.raises(SimulationError):
            exemplar_from_dict(record, 99)
