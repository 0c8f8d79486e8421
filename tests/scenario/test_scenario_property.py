"""Property test: random valid scenarios keep the serving invariants.

Draws ``repro.scenario/1`` documents of both kinds (service, and cluster
with one to four nodes and replication up to the node count), every
arrival kind, an optional fault profile and an optional adaptive
controller, and runs each through :func:`repro.api.serve`. Every
server the sweep builds, and the ``ServiceReport`` it returns, is
captured so the check can see each request and each shard engine, not
only the document's aggregates.

Oracles:

* ``from_dict(to_dict(spec))`` is a stable round trip;
* every finished request's ``queue_wait + batch_wait + execution``
  equals its latency, and no phase is negative;
* each point's ``p50 <= p95 <= p99``;
* ``served + refused == arrivals == n_requests`` per run, where
  refused counts rejections, drops, timeouts and retry failures (read
  off the report: a plain document carries no timeout count);
* cluster points' per-node batch and completion counters sum to the
  point's ``batches`` and ``completed``;
* every shard engine's TMAM slots cover exactly its cycles after the
  sweep (``tmam.check_consistency()``);
* a traced run emits the same document as the untraced one, and every
  request's span tree passes :func:`repro.obs.rtrace.trace_errors`;
* on every event-loop iteration the dispatch plan the server kept
  equals a freshly computed ``_plan_dispatch()`` (the loop re-plans
  only on a state change, so a missed change shows up here).

Shrunk counterexamples found while writing the oracles stay below as
``@example`` rows. ``pytest --hypothesis-profile=thorough`` runs a
larger randomized search (see ``tests/hypothesis_profiles.py``).
"""

import contextlib

from hypothesis import example, given, strategies as st

from repro import api, perf
from repro.faults.schedule import fault_profile_names
from repro.obs.rtrace import trace_errors
from repro.scenario import Scenario
from repro.service.loadgen import run_traced_scenario
from repro.service.server import ServiceServer
from tests.hypothesis_profiles import property_settings

CI = property_settings(max_examples=200)


@st.composite
def arrivals(draw):
    kind = draw(st.sampled_from(("poisson", "bursty", "closed", "diurnal")))
    params = {}
    if kind == "bursty":
        params = {
            "burst_cycles": draw(st.integers(2_000, 30_000)),
            "gap_cycles": draw(st.integers(2_000, 40_000)),
        }
    elif kind == "closed":
        params = {"think_cycles": draw(st.integers(1_000, 12_000))}
    elif kind == "diurnal":
        params = {
            "n_regions": draw(st.integers(1, 6)),
            "day_cycles": draw(st.integers(20_000, 120_000)),
            "amplitude": draw(st.sampled_from((0.0, 0.5, 0.8))),
        }
    return {"kind": kind, "params": params}


@st.composite
def controllers(draw):
    return {
        "window_cycles": draw(st.integers(2_000, 12_000)),
        "techniques": draw(
            st.sampled_from(([], ["sequential", "CORO"], ["GP", "AMAC"]))
        ),
        "consolidate_shards": draw(st.booleans()),
        "manage_overflow": draw(st.booleans()),
    }


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(("service", "cluster")))
    config = {
        "max_batch": draw(st.integers(1, 24)),
        "max_wait_cycles": draw(st.integers(500, 5_000)),
        "queue_capacity": draw(st.integers(4, 96)),
        "overload_policy": draw(st.sampled_from(("reject", "drop", "shed"))),
        "n_shards": draw(st.integers(1, 3)),
        "warmup_requests": draw(st.integers(0, 16)),
        "slo_cycles": draw(st.none() | st.integers(5_000, 40_000)),
        "max_retries": draw(st.integers(0, 2)),
        "retry_backoff_cycles": draw(st.integers(0, 3_000)),
        "hedge_after_cycles": draw(st.none() | st.integers(0, 9_000)),
        "timeout_cycles": draw(st.none() | st.integers(5_000, 60_000)),
        "degradation": draw(st.sampled_from(("off", "adaptive"))),
        "overflow_fallback": draw(st.booleans()),
        "request_kind": draw(st.sampled_from(("lookup", "lookup", "plan"))),
        "rate_limit_per_kcycle": draw(st.none() | st.sampled_from((0.5, 2.0))),
        "controller": draw(st.none() | controllers()),
    }
    record = {
        "schema": "repro.scenario/1",
        "name": "prop",
        "kind": kind,
        "arrival": draw(arrivals()),
        "loads": draw(
            st.lists(
                st.sampled_from((0.3, 0.8, 1.5, 3.0)),
                min_size=1,
                max_size=2,
                unique=True,
            )
        ),
        "techniques": draw(
            st.lists(
                st.sampled_from(("sequential", "GP", "AMAC", "CORO")),
                min_size=1,
                max_size=2,
                unique=True,
            )
        ),
        "table_bytes": draw(st.sampled_from((64 << 10, 256 << 10, 1 << 20))),
        "n_requests": draw(st.integers(1, 120)),
        "fault_profile": draw(st.none() | st.sampled_from(fault_profile_names())),
        "config": config,
    }
    if kind == "cluster":
        n_nodes = draw(st.integers(1, 4))
        config["n_nodes"] = n_nodes
        config["replication"] = draw(st.integers(1, n_nodes))
        record["interconnect"] = draw(st.sampled_from(("planet", "single")))
        record["n_users"] = draw(st.integers(1, 100_000))
    return Scenario.from_dict(record)


@contextlib.contextmanager
def captured_runs():
    """Collect every ``(server, report)`` pair ``ServiceServer.serve``
    produces."""
    serve = ServiceServer.serve
    runs = []

    def capturing(server, *args, **kwargs):
        report = serve(server, *args, **kwargs)
        runs.append((server, report))
        return report

    ServiceServer.serve = capturing
    try:
        yield runs
    finally:
        ServiceServer.serve = serve


@contextlib.contextmanager
def checked_plans():
    """Check every plan read of the event loop against a fresh plan,
    failing at the first mismatch (a kept plan that outlived its batch
    would otherwise re-dispatch forever); yields the list of reads."""
    current = ServiceServer._current_plan
    checks = []

    def checking(server):
        kept = current(server)
        fresh = server._plan_dispatch()
        assert kept == fresh, (kept, fresh)
        checks.append(kept)
        return kept

    ServiceServer._current_plan = checking
    try:
        yield checks
    finally:
        ServiceServer._current_plan = current


@CI
@given(spec=specs(), seed=st.integers(0, 3))
# Deadline expiry with no faults: the plain document has no timeout
# count, so refusals are counted off the report.
@example(
    spec=Scenario.from_dict(
        {
            "schema": "repro.scenario/1",
            "name": "prop",
            "loads": [0.3, 0.8],
            "techniques": ["sequential"],
            "table_bytes": 65536,
            "n_requests": 6,
            "config": {
                "max_batch": 1,
                "max_wait_cycles": 500,
                "queue_capacity": 4,
                "n_shards": 1,
                "warmup_requests": 0,
                "slo_cycles": None,
                "timeout_cycles": 5000,
                "retry_backoff_cycles": 0,
            },
        }
    ),
    seed=0,
)
# A shed request moves the overflow lane's busy_until while an outage
# plans the batch onto that lane: the kept plan must be re-made.
@example(
    spec=Scenario.from_dict(
        {
            "schema": "repro.scenario/1",
            "name": "prop",
            "loads": [1.5],
            "techniques": ["CORO"],
            "table_bytes": 65536,
            "n_requests": 120,
            "fault_profile": "shard-outage",
            "config": {
                "max_batch": 2,
                "max_wait_cycles": 500,
                "queue_capacity": 4,
                "overload_policy": "shed",
                "n_shards": 1,
                "overflow_fallback": True,
                "warmup_requests": 0,
            },
        }
    ),
    seed=0,
)
def test_random_scenarios_keep_the_serving_invariants(spec, seed):
    record = spec.to_dict()
    again = Scenario.from_dict(record)
    assert again == spec
    assert again.to_dict() == record

    with captured_runs() as runs, checked_plans() as plans:
        doc = api.serve(record, seed=seed, jobs=1, cache=None).doc
    assert plans

    n = spec.n_requests
    assert doc["kind"] == spec.kind
    assert len(doc["points"]) == len(spec.loads) * len(spec.techniques)
    assert len(runs) == len(doc["points"])
    for point, (server, report) in zip(doc["points"], runs):
        assert point["p50"] <= point["p95"] <= point["p99"]
        counters, resilience = report.counters, report.resilience
        refused = (
            counters["rejected"]
            + counters["dropped"]
            + resilience["timeouts"]
            + resilience["failed"]
        )
        assert point["arrivals"] == counters["arrivals"] == n
        assert point["served"] == report.served
        assert report.served + refused == n
        if spec.kind == "cluster":
            assert sum(point["node_batches"].values()) == point["batches"]
            assert sum(point["node_completed"].values()) == point["completed"]
        assert len(report.requests) == n
        for request in report.requests:
            if not request.finished:
                continue
            parts = (request.queue_wait, request.batch_wait, request.execution_cycles)
            assert min(parts) >= 0
            assert sum(parts) == request.latency
        for shard in server.shards:
            shard.engine.tmam.check_consistency()

    with perf.overrides(jobs=1):
        traced_doc, traced = run_traced_scenario(spec, seed=seed)
    assert traced_doc == doc
    for label, record in traced.items():
        for trace in record["traces"]:
            assert trace_errors(trace) == [], (label, trace["trace_id"])
