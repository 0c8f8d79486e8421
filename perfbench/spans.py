"""Host-time spans around the public entry points of each ``repro`` layer.

``SpanLog.install()`` wraps functions and methods in place; every call
records one span: its layer name, start, end and parent span. Nothing
inside the library changes and no ``repro.obs`` recorder is attached to
an engine, so the simulated program is the one an untraced run
executes. Spans live in flat arrays in memory and are written out with
``save`` after the run.

A layer's self time is the duration of its spans minus the part of
each covered by child spans. ``ledger`` computes it and checks the
accounting: layer self times plus the time outside every span equal
the traced wall time.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

#: Layer name -> what is wrapped. Entries are ``"module:attr"`` for
#: functions and ``"module:Class.method"`` for methods.
LAYERS = {
    "api": ["repro.api:lookup_batch", "repro.api:run_plan", "repro.api:serve"],
    "interleaving.executor": [],  # every registered executor's run()
    "service.server": [
        "repro.service.server:ServiceServer.serve",
        "repro.cluster.server:ClusterServer.serve",
    ],
    "service.build": [
        "repro.service.server:ServiceServer.__init__",
        "repro.cluster.server:ClusterServer.__init__",
    ],
    "service.calibrate": ["repro.service.loadgen:sequential_capacity"],
    "service.admission": [
        "repro.service.admission:AdmissionController.offer",
        "repro.service.admission:AdmissionController.requeue",
        "repro.service.admission:AdmissionController.take",
        "repro.service.admission:TokenBucket.try_take",
    ],
    "service.coalescer": [
        "repro.service.coalescer:Coalescer.next_trigger",
        "repro.service.coalescer:Coalescer.take",
    ],
    "service.arrivals": ["repro.service.arrivals:make_arrivals"],  # + process methods
    "cluster.routing": [
        "repro.cluster.routing:ClusterRouter.split",
        "repro.cluster.routing:ClusterRouter.replicas",
        "repro.cluster.routing:ClusterRouter.primary",
        "repro.cluster.routing:HashRing.replicas",
        "repro.cluster.routing:HashRing.preference",
    ],
    "faults.injector": [
        f"repro.faults.injector:FaultInjector.{method}"
        for method in (
            "available_from",
            "all_shards_down_at",
            "extra_latency_at",
            "lfb_capacity_at",
            "environment",
            "window_kinds_between",
            "crash_between",
            "next_pending_at",
            "apply_pending",
            "applied",
        )
    ],
    "control": [
        f"repro.control.controller:AdaptiveController.{method}"
        for method in (
            "on_arrival",
            "on_answer",
            "next_boundary",
            "roll_to",
            "finish",
            "summary",
        )
    ],
    "query.plan": ["repro.query.plan:QueryPlan.execute"],
    "columnstore.build": [
        "repro.columnstore.column:EncodedColumn.__init__",
        "repro.columnstore.dictionary:MainDictionary.implicit",
        "repro.columnstore.dictionary:DeltaDictionary.implicit",
    ],
    "columnstore.scan": [],  # the scan instruction stream, per resume
    "obs.hist": [
        "repro.obs.hist:nearest_rank",
        *(
            f"repro.obs.hist:ExemplarHistogram.{method}"
            for method in (
                "observe",
                "percentile_bucket",
                "exemplar_for",
                "exemplars",
                "as_dict",
            )
        ),
    ],
    "perf.sweep": [
        "repro.perf.sweep:SweepRunner.run",
        "repro.perf.sweep:SweepRunner.map",
    ],
}

_ARRIVAL_METHODS = ("peek", "pop", "notify_completion", "drain")


class SpanLog:
    """Flat in-memory span store with a parent stack."""

    def __init__(self) -> None:
        self.names = list(LAYERS)
        self.layer_id = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        #: Executor spans: lookups in the batch; other spans: 0.
        self.size = array("q")
        self.stack: list[int] = []
        self.engines: list = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def wrap(self, fn, layer: str, sized: bool = False):
        layer_id = self.layer_id[layer]
        names, starts, ends = self.name, self.start, self.end
        parents, sizes, stack = self.parent, self.size, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            if sized:
                sizes.append(len(args[1] if len(args) > 1 else kwargs["tasks"]))
            else:
                sizes.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    def wrap_stream(self, fn, layer: str):
        """Wrap a generator function: one span per resume of its body."""
        layer_id = self.layer_id[layer]
        names, starts, ends = self.name, self.start, self.end
        parents, sizes, stack = self.parent, self.size, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sent = None
            while True:
                index = len(names)
                names.append(layer_id)
                parents.append(stack[-1] if stack else -1)
                sizes.append(0)
                ends.append(0.0)
                stack.append(index)
                starts.append(perf_counter())
                try:
                    event = inner.send(sent)
                except StopIteration as stop:
                    return stop.value
                finally:
                    ends[index] = perf_counter()
                    stack.pop()
                sent = yield event

        return traced

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_method(self, cls, method: str, layer: str, sized: bool = False) -> None:
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            self._patch(cls, method, classmethod(self.wrap(raw.__func__, layer)))
        else:
            self._patch(cls, method, self.wrap(raw, layer, sized))

    def _patch_function(self, module, attr: str, wrapped) -> None:
        """Rebind a function in its module and wherever it was imported."""
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(
                mod, attr, None
            ) is original:
                self._patch(mod, attr, wrapped)

    def install(self) -> None:
        import importlib

        import repro.cluster.loadgen  # noqa: F401  (binds sequential_capacity)
        import repro.interleaving.compiled  # noqa: F401  (registers twins)
        from repro.interleaving.executor import EXECUTOR_REGISTRY
        from repro.service.arrivals import ArrivalProcess
        from repro.sim.engine import ExecutionEngine

        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, qualname = target.partition(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, method = qualname.split(".")
                    self._patch_method(getattr(module, cls_name), method, layer)
                else:
                    self._patch_function(
                        module, qualname, self.wrap(getattr(module, qualname), layer)
                    )

        seen = set()
        for executor in EXECUTOR_REGISTRY.values():
            for cls in type(executor).__mro__:
                if "run" in cls.__dict__ and cls not in seen:
                    seen.add(cls)
                    self._patch_method(cls, "run", "interleaving.executor", sized=True)

        pending = [ArrivalProcess]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for method in _ARRIVAL_METHODS:
                if method in cls.__dict__:
                    self._patch_method(cls, method, "service.arrivals")

        scan = importlib.import_module("repro.columnstore.scan")
        self._patch_function(
            scan,
            "scan_batch_stream",
            self.wrap_stream(scan.scan_batch_stream, "columnstore.scan"),
        )
        self.track_engines(ExecutionEngine)

    def track_engines(self, engine_cls) -> None:
        """Keep every engine built, to total its simulated counters."""
        init = engine_cls.__dict__["__init__"]
        engines = self.engines

        @functools.wraps(init)
        def tracked(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            engines.append(engine)

        self._patch(engine_cls, "__init__", tracked)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def sim_totals(self) -> dict:
        """Simulated cycles and demand loads over every engine built."""
        cycles = loads = 0
        for engine in self.engines:
            snap = engine.snapshot()
            cycles += snap.cycles
            loads += snap.memory.loads
        return {"cycles": cycles, "loads": loads}

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.int64),
        }

    def save(self, path, run_id: str) -> None:
        np.savez(path, names=np.array(self.names), run_id=np.array(run_id), **self.arrays())


def ledger(spans: dict, names: list[str], t0: float, t1: float) -> dict:
    """Per-layer self time, call counts and the accounting check.

    ``calls`` counts a layer's outermost spans: entries into the layer
    from outside it. A child span must lie inside its parent and root
    spans inside ``[t0, t1]``; any breach, or self times plus the time
    outside all spans not adding up to ``t1 - t0``, fails ``ok``.
    """
    name, start, end, parent = spans["name"], spans["start"], spans["end"], spans["parent"]
    n_layers = len(names)
    duration = end - start
    has_parent = parent >= 0
    child = np.flatnonzero(has_parent)
    p = parent[child]
    inside = (start[child] >= start[p]) & (end[child] <= end[p])
    covered = np.zeros(len(name))
    clipped = np.minimum(end[child], end[p]) - np.maximum(start[child], start[p])
    np.add.at(covered, p, np.clip(clipped, 0.0, None))
    self_time = duration - covered
    roots = np.flatnonzero(~has_parent)
    root_start, root_end = start[roots], end[roots]
    order = np.argsort(root_start)
    roots_ok = bool(
        (root_start >= t0).all()
        and (root_end <= t1).all()
        and (root_start[order][1:] >= root_end[order][:-1]).all()
    )
    wall = t1 - t0
    unattributed = wall - float(duration[roots].sum())
    self_s = np.bincount(name, weights=self_time, minlength=n_layers)
    outer = outer_mask(spans)
    calls = np.bincount(name[outer], minlength=n_layers)
    inclusive = np.bincount(name[outer], weights=duration[outer], minlength=n_layers)
    total = float(self_s.sum()) + unattributed
    return {
        "self_s": {layer: float(self_s[i]) for i, layer in enumerate(names)},
        "calls": {layer: int(calls[i]) for i, layer in enumerate(names)},
        "inclusive_s": {layer: float(inclusive[i]) for i, layer in enumerate(names)},
        "unattributed_s": unattributed,
        "wall_s": wall,
        "ok": bool(inside.all())
        and roots_ok
        and bool((self_time >= -1e-9).all())
        and abs(total - wall) <= 1e-6 * max(wall, 1.0),
    }


def outer_mask(spans: dict) -> np.ndarray:
    """Spans whose parent is in another layer (or that have none)."""
    name, parent = spans["name"], spans["parent"]
    outer = np.ones(len(name), dtype=bool)
    child = np.flatnonzero(parent >= 0)
    outer[child] = name[child] != name[parent[child]]
    return outer
