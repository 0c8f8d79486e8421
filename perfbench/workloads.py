"""The four benchmark workloads, each driven through ``repro.api``.

A workload is built from a seed (``setup``), then exposes a fixed cycle
of public-API calls. ``call(i)`` is the only part that is timed; its
result goes to ``check(i, result)``, which applies the correctness
oracle and returns ``(failed_ops, digest)``. The digest is a short hash
of the simulated outputs of that call, compared against
``golden.json`` when the seed is the default one.

Nothing here touches the library's engine mode, sweep jobs or result
cache: the worker pins those once for the whole process.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro import api
from repro.config import HASWELL
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import ExecutionEngine

SPEC_DIR = Path(__file__).resolve().parent / "specs"

#: The seed whose digests are recorded in golden.json.
DEFAULT_SEED = 0


def digest(obj) -> str:
    """Short stable hash of a JSON-able value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class JoinBulk:
    """Repeated ``api.lookup_batch`` calls against a 2 GB implicit array.

    Calls rotate through sequential, GP, AMAC and CORO at their default
    group sizes. Probe counts differ per technique so that every call
    costs a similar amount of host time. Each call gets a cold engine,
    exactly as ``lookup_batch(engine=None)`` would build one; passing it
    in only lets the check read the engine's load counters.
    """

    name = "join-bulk"
    TABLE_BYTES = 2 << 30
    ROTATION = (("sequential", 400), ("GP", 300), ("AMAC", 200), ("CORO", 200))
    N_ROTATIONS = 12
    pass_calls = 2 * len(ROTATION)

    def __init__(self, seed: int) -> None:
        from repro.workloads.generators import make_table

        allocator = AddressSpaceAllocator(page_size=HASWELL.page_size)
        self.table = make_table(allocator, "bench/join", self.TABLE_BYTES)
        rng = np.random.RandomState(seed)
        self.script = [
            (technique, [int(v) for v in rng.randint(0, self.table.size, n)])
            for _ in range(self.N_ROTATIONS)
            for technique, n in self.ROTATION
        ]
        self.engines: dict[int, ExecutionEngine] = {}
        warm_rng = np.random.RandomState(seed + 7)
        for technique, _ in self.ROTATION:
            warm = [int(v) for v in warm_rng.randint(0, self.table.size, 16)]
            api.lookup_batch(self.table, warm, technique=technique)

    @property
    def n_calls(self) -> int:
        return len(self.script)

    def ops(self, i: int) -> int:
        return len(self.script[i][1])

    def call(self, i: int):
        technique, values = self.script[i]
        engine = ExecutionEngine(HASWELL)
        self.engines[i] = engine
        return api.lookup_batch(self.table, values, technique=technique, engine=engine)

    def check(self, i: int, result) -> tuple[int, str]:
        technique, values = self.script[i]
        engine = self.engines.pop(i)
        # Implicit arrays store value == index, so a probe's result is
        # its own value.
        failed = sum(1 for got, want in zip(result.results, values) if got != want)
        failed += len(values) - len(result.results)
        snap = engine.snapshot()
        return failed, digest(
            [result.technique, result.group_size, result.cycles, snap.memory.loads]
        )


class QueryInPredicate:
    """Repeated ``api.run_plan`` IN-predicate queries.

    Queries alternate between a 256 MB Main dictionary (sorted array)
    and a 64 MB Delta dictionary (CSB+-tree); each plan ends in a
    semi-join scan of an 80 k-row code vector. Half of each predicate
    list is drawn from values present in the column, so the scan finds
    matches.
    """

    name = "query-in-predicate"
    STORES = (("main", 256 << 20), ("delta", 64 << 20))
    N_ROWS = 80_000
    N_PREDICATES = 200
    N_QUERIES = 64
    pass_calls = 4 * len(STORES)

    def __init__(self, seed: int) -> None:
        from repro.columnstore.column import EncodedColumn
        from repro.columnstore.dictionary import DeltaDictionary, MainDictionary

        allocator = AddressSpaceAllocator(page_size=HASWELL.page_size)
        rng = np.random.RandomState(seed)
        self.columns = {}
        for store, nbytes in self.STORES:
            cls = MainDictionary if store == "main" else DeltaDictionary
            dictionary = cls.implicit(allocator, f"bench/{store}/dict", nbytes)
            codes = rng.randint(0, dictionary.n_values, self.N_ROWS)
            self.columns[store] = EncodedColumn(
                dictionary, codes, allocator, f"bench/{store}/col"
            )
        self.script = []
        for q in range(self.N_QUERIES):
            store = self.STORES[q % len(self.STORES)][0]
            column = self.columns[store]
            half = self.N_PREDICATES // 2
            present = [
                int(column.decode_row(int(row)))
                for row in rng.randint(0, self.N_ROWS, half)
            ]
            uniform = rng.randint(0, column.dictionary.n_values, half).tolist()
            self.script.append((store, present + uniform))
        self.engines: dict[int, ExecutionEngine] = {}
        warm_rng = np.random.RandomState(seed + 7)
        for store, _ in self.STORES:
            column = self.columns[store]
            warm = warm_rng.randint(0, column.dictionary.n_values, 16).tolist()
            api.run_plan(column, warm)

    @property
    def n_calls(self) -> int:
        return len(self.script)

    def ops(self, i: int) -> int:
        return 1

    def call(self, i: int):
        store, predicates = self.script[i]
        engine = ExecutionEngine(HASWELL)
        self.engines[i] = engine
        return api.run_plan(self.columns[store], predicates, engine=engine)

    def check(self, i: int, result) -> tuple[int, str]:
        store, predicates = self.script[i]
        column = self.columns[store]
        engine = self.engines.pop(i)
        # Oracle: host-side locate of each literal, then numpy over the
        # code vector.
        codes = [column.dictionary.locate(v) for v in predicates]
        expected = np.flatnonzero(np.isin(column.codes, codes))
        failed = int(
            result.n_matches != expected.size
            or not np.array_equal(np.asarray(result.rows, dtype=np.int64), expected)
        )
        snap = engine.snapshot()
        return failed, digest(
            [
                store,
                result.strategy,
                result.group_size,
                result.n_matches,
                [[op.label, op.cycles] for op in result.operators],
                snap.cycles,
                snap.memory.loads,
            ]
        )


class _Serve:
    """One ``api.serve`` call per pass over an embedded scenario spec.

    Every ``ServiceReport`` the servers produce is captured (one list
    append per server) so the check can verify each request's latency
    anatomy; the data document carries only means.
    """

    spec_file = ""
    WARM_REQUESTS = 200
    pass_calls = 1
    n_calls = 1

    def __init__(self, seed: int) -> None:
        from repro.service.server import ServiceServer

        self.seed = seed
        self.spec = json.loads((SPEC_DIR / self.spec_file).read_text())
        self.reports: list = []
        #: Dispatch batches over every checked call (a layer denominator).
        self.batches = 0
        serve = ServiceServer.serve
        reports = self.reports

        def capturing_serve(server, *args, **kwargs):
            report = serve(server, *args, **kwargs)
            reports.append(report)
            return report

        ServiceServer.serve = capturing_serve
        warm = dict(self.spec, n_requests=self.WARM_REQUESTS)
        api.serve(warm, seed=seed, jobs=1, cache=None)
        self.reports.clear()

    def ops(self, i: int) -> int:
        return self.spec["n_requests"] * len(self.spec["loads"]) * len(
            self.spec["techniques"]
        )

    def call(self, i: int):
        self.reports.clear()
        return api.serve(self.spec, seed=self.seed, jobs=1, cache=None)

    def check(self, i: int, result) -> tuple[int, str]:
        doc = result.doc
        n = self.spec["n_requests"]
        bad = len(doc["points"]) != len(self.spec["loads"]) or len(self.reports) != len(
            doc["points"]
        )
        for point in doc["points"]:
            refused = sum(
                point.get(key, 0)
                for key in ("rejected", "dropped", "timeouts", "failed")
            )
            bad |= point["arrivals"] != n or point["served"] + refused != n
            bad |= not point["p50"] <= point["p95"] <= point["p99"]
        for report in self.reports:
            bad |= len(report.requests) != n
            for request in report.requests:
                if not request.finished:
                    continue
                parts = (
                    request.batch_wait,
                    request.queue_wait,
                    request.execution_cycles,
                )
                bad |= min(parts) < 0 or sum(parts) != request.latency
        self.reports.clear()
        self.batches += sum(point["batches"] for point in doc["points"])
        return (self.ops(i) if bad else 0), digest(doc)


class ServePlanet(_Serve):
    """``planet`` (8 nodes, R=2, cluster-chaos), CORO at 0.6x and 1.8x."""

    name = "serve-planet"
    spec_file = "serve-planet.json"


class ServeChaosControl(_Serve):
    """``phase-shift`` (one node, adaptive controller), CORO at 1.2x."""

    name = "serve-chaos-control"
    spec_file = "serve-chaos-control.json"


WORKLOADS = {
    cls.name: cls for cls in (JoinBulk, ServePlanet, ServeChaosControl, QueryInPredicate)
}
