"""Tests for arrival processes: determinism, shapes, RNG isolation."""

import random

import pytest

from repro.errors import WorkloadError
from repro.service.arrivals import (
    ARRIVAL_KINDS,
    BurstyArrivals,
    ClosedLoopArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    make_arrivals,
)


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda seed: PoissonArrivals(2.0, 200, seed),
            lambda seed: BurstyArrivals(0.5, 4.0, 5_000, 10_000, 200, seed),
            lambda seed: ClosedLoopArrivals(8, 3_000, 50, seed),
        ],
        ids=["poisson", "bursty", "closed"],
    )
    def test_same_seed_same_schedule(self, factory):
        assert factory(42).drain() == factory(42).drain()

    def test_different_seeds_differ(self):
        a = PoissonArrivals(2.0, 200, seed=1).drain()
        b = PoissonArrivals(2.0, 200, seed=2).drain()
        assert a != b

    def test_global_rng_is_never_touched(self):
        # The processes own private Random instances; constructing and
        # draining them must leave the module-level RNG state intact.
        random.seed(1234)
        before = random.getstate()
        PoissonArrivals(2.0, 100, seed=5).drain()
        BurstyArrivals(0.5, 4.0, 5_000, 10_000, 100, seed=5).drain()
        closed = ClosedLoopArrivals(4, 2_000, 20, seed=5)
        closed.drain()
        closed.notify_completion(10_000)
        assert random.getstate() == before

    def test_schedule_is_immune_to_global_seeding(self):
        random.seed(1)
        a = PoissonArrivals(2.0, 100, seed=9).drain()
        random.seed(2)
        b = PoissonArrivals(2.0, 100, seed=9).drain()
        assert a == b


class TestPoisson:
    def test_times_non_decreasing_and_counted(self):
        arrivals = PoissonArrivals(2.0, 300, seed=0)
        times = arrivals.drain()
        assert len(times) == 300
        assert arrivals.issued == 300
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_empirical_rate_tracks_the_requested_one(self):
        rate = 2.0  # per kilocycle
        times = PoissonArrivals(rate, 2_000, seed=3).drain()
        empirical = len(times) * 1000.0 / times[-1]
        assert empirical == pytest.approx(rate, rel=0.15)

    def test_bad_rate_rejected(self):
        with pytest.raises(WorkloadError, match="rate"):
            PoissonArrivals(0.0, 10, seed=0)
        with pytest.raises(WorkloadError, match="request"):
            PoissonArrivals(1.0, 0, seed=0)


class TestBursty:
    def test_bursts_are_denser_than_gaps(self):
        burst, gap = 10_000, 30_000
        arrivals = BurstyArrivals(0.2, 5.0, burst, gap, 2_000, seed=0)
        period = burst + gap
        in_burst = sum(1 for t in arrivals.drain() if (t % period) < burst)
        # The burst phase covers 25% of time but >60% of arrivals.
        assert in_burst > 0.6 * 2_000

    def test_phase_bounds_validated(self):
        with pytest.raises(WorkloadError, match="phase"):
            BurstyArrivals(1.0, 2.0, 0, 10, 5, seed=0)


class TestDiurnal:
    def test_weights_are_computed_once_per_arrival(self, monkeypatch):
        # One evaluation per arrival instant (region draw and next gap
        # share it) plus the initial one at cycle 0.
        calls = []
        weights_at = DiurnalArrivals._weights_at

        def counted(self, cycle):
            calls.append(cycle)
            return weights_at(self, cycle)

        monkeypatch.setattr(DiurnalArrivals, "_weights_at", counted)
        arrivals = DiurnalArrivals(0.5, 300, seed=3, n_regions=3, day_cycles=50_000)
        times = arrivals.drain()
        assert len(times) == 300 and len(arrivals.regions) == 300
        assert len(calls) == 301 and calls[0] == 0.0


class TestClosedLoop:
    def test_initial_window_holds_one_arrival_per_client(self):
        arrivals = ClosedLoopArrivals(6, 5_000, 100, seed=0)
        initial = arrivals.drain()
        assert len(initial) == 6  # nothing more until completions land
        assert all(0 <= t < 5_000 for t in initial)

    def test_completions_schedule_followups_with_bounded_jitter(self):
        arrivals = ClosedLoopArrivals(1, 5_000, 10, seed=0)
        arrivals.drain()
        arrivals.notify_completion(100_000)
        follow_up = arrivals.pop()
        assert 100_000 + 4_000 <= follow_up <= 100_000 + 6_000

    def test_population_caps_total_issues(self):
        arrivals = ClosedLoopArrivals(2, 1_000, 5, seed=0)
        issued = len(arrivals.drain())
        cycle = 0
        while issued < 5:
            cycle += 10_000
            arrivals.notify_completion(cycle)
            issued += len(arrivals.drain())
        arrivals.notify_completion(cycle + 10_000)  # budget exhausted
        assert arrivals.peek() is None
        assert issued == 5

    def test_client_population_never_exceeds_requests(self):
        arrivals = ClosedLoopArrivals(50, 1_000, 3, seed=0)
        assert arrivals.n_clients == 3
        assert len(arrivals.drain()) == 3


class TestFactory:
    def test_every_registered_kind_constructs(self):
        params = {
            "poisson": {"rate_per_kcycle": 1.0},
            "bursty": {
                "base_rate_per_kcycle": 0.5,
                "burst_rate_per_kcycle": 2.0,
                "burst_cycles": 1_000,
                "gap_cycles": 2_000,
            },
            "closed": {"n_clients": 2, "think_cycles": 1_000},
            "diurnal": {
                "base_rate_per_kcycle": 1.0,
                "n_regions": 3,
                "day_cycles": 50_000,
                "amplitude": 0.7,
            },
        }
        assert set(params) == set(ARRIVAL_KINDS)
        for kind, kwargs in params.items():
            arrivals = make_arrivals(kind, 10, 0, **kwargs)
            assert arrivals.kind == kind

    def test_unknown_kind_lists_known_ones(self):
        with pytest.raises(WorkloadError, match="poisson"):
            make_arrivals("uniform", 10, 0)
