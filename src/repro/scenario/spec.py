"""``repro.scenario/1``: the one scenario type and its document form.

A :class:`Scenario` bundles everything ``python -m repro serve`` needs:
the probed table, the arrival shape, the admission/coalescing
configuration, the candidate techniques, and the offered-load grid. Load
points are expressed as **multipliers of the sequential executor's
calibrated capacity** (measured at run time by
:mod:`repro.service.loadgen`), so "2.0" always means "twice what the
non-interleaved server could possibly sustain" regardless of table size
or architecture scale — the robustness story's x-axis. Scenarios
default to a :func:`~repro.config.scaled` architecture so the table
overflows the (shrunken) LLC in seconds of real time; the simulated
physics are unchanged.

A scenario with an ``interconnect`` preset is a *cluster* scenario
(``kind: cluster``): its config spreads ``n_nodes`` x ``n_shards``
shards over a routed fleet, and its traffic is drawn from a simulated
user population pinned to home nodes.

The same type is a versioned plain-data document:

.. code-block:: yaml

    schema: repro.scenario/1
    name: flash-crowd
    kind: service            # or "cluster"
    arrival: {kind: bursty, params: {burst_cycles: 20000}}
    loads: [0.8, 1.6]
    techniques: [sequential, CORO]
    config: {max_batch: 24, overload_policy: shed, ...}
    fault_profile: chaos     # optional

Validation is split by who can get it wrong. :meth:`Scenario.from_dict`
checks the *shape* of outside input — mapping, schema tag, unknown
keys, scalar types, cluster-only keys — so a typo'd knob fails loudly
at parse time, never as a mysteriously-default run. Every *semantic*
check (known arrival kind, techniques and fault profile, positive loads
and sizes, interconnect preset) runs at construction, so a scenario
built in Python and one read from a file meet the same checks. Both
raise :class:`~repro.errors.SpecError` carrying the dotted path of the
offending field (``config.max_batch``, ``arrival.kind``).
:meth:`Scenario.to_dict` emits the canonical plain-JSON form; registry
scenarios round-trip through it byte-identically (pinned by tests).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.cluster.topology import TOPOLOGY_PRESETS, ClusterTopology
from repro.control import ControllerConfig
from repro.errors import ConfigurationError, SpecError, WorkloadError
from repro.faults.schedule import get_fault_profile
from repro.interleaving.executor import get_executor
from repro.service.arrivals import ARRIVAL_KINDS
from repro.service.server import ServiceConfig

__all__ = [
    "SCENARIO_SPEC_SCHEMA",
    "SCENARIO_KINDS",
    "Scenario",
    "config_from_dict",
    "config_to_dict",
]

#: Schema tag every scenario document must carry.
SCENARIO_SPEC_SCHEMA = "repro.scenario/1"

#: Scenario shapes a document distinguishes.
SCENARIO_KINDS = ("service", "cluster")

#: The four serving techniques the robustness story compares.
DEFAULT_TECHNIQUES = ("sequential", "GP", "AMAC", "CORO")

#: Top-level keys a document may carry (cluster-only keys included;
#: their use under ``kind: service`` is rejected with a pathed error).
_TOP_LEVEL_KEYS = (
    "schema",
    "name",
    "kind",
    "description",
    "arrival",
    "loads",
    "techniques",
    "table_bytes",
    "arch_scale",
    "n_requests",
    "fault_profile",
    "config",
    "interconnect",
    "n_users",
)

_CLUSTER_ONLY_KEYS = ("interconnect", "n_users")

#: Config fields only a ``kind: cluster`` document may set.
_CLUSTER_CONFIG_KEYS = ("n_nodes", "replication")

#: Scalar shape of each config field: (accepted types, allows None).
#: ``bool`` must be listed before ``int`` checks anywhere both apply —
#: JSON booleans are not acceptable integers here.
_NUMBER = (int, float)
_CONFIG_FIELD_TYPES: dict[str, tuple[tuple, bool]] = {
    "technique": ((str,), False),
    "group_size": ((int,), True),
    "max_batch": ((int,), False),
    "max_wait_cycles": ((int,), False),
    "queue_capacity": ((int,), False),
    "overload_policy": ((str,), False),
    "rate_limit_per_kcycle": (_NUMBER, True),
    "rate_limit_burst": ((int,), False),
    "n_shards": ((int,), False),
    "warmup_requests": ((int,), False),
    "slo_cycles": ((int,), True),
    "slo_target": (_NUMBER, False),
    "timeout_cycles": ((int,), True),
    "max_retries": ((int,), False),
    "retry_backoff_cycles": ((int,), False),
    "hedge_after_cycles": ((int,), True),
    "degradation": ((str,), False),
    "overflow_fallback": ((bool,), False),
    "request_kind": ((str,), False),
    "controller": ((dict,), True),
    # Cluster-only (see _CLUSTER_CONFIG_KEYS):
    "n_nodes": ((int,), False),
    "replication": ((int,), False),
}

_CONTROLLER_FIELD_TYPES: dict[str, tuple[tuple, bool]] = {
    "window_cycles": ((int,), False),
    "techniques": ((list, tuple), False),
    "slo_fraction_high": (_NUMBER, False),
    "slo_fraction_low": (_NUMBER, False),
    "queue_high": ((int,), False),
    "idle_arrivals": ((int,), False),
    "min_wait_cycles": ((int,), False),
    "resize_groups": ((bool,), False),
    "consolidate_shards": ((bool,), False),
    "manage_overflow": ((bool,), False),
}


def _check_scalar(value, types, allow_none, path: str):
    if value is None:
        if allow_none:
            return None
        raise SpecError("must not be null", path=path)
    if isinstance(value, bool) and bool not in types:
        raise SpecError(f"expected {types[0].__name__}, got a boolean", path=path)
    if not isinstance(value, tuple(types)):
        raise SpecError(
            f"expected {types[0].__name__}, got {type(value).__name__}",
            path=path,
        )
    return value


def _check_list(data, item_types, path: str) -> tuple:
    """A list of scalars, type-checked item by item (emptiness is a
    semantic question the constructor answers)."""
    if not isinstance(data, (list, tuple)):
        raise SpecError("must be a non-empty list", path=path)
    for index, value in enumerate(data):
        _check_scalar(value, item_types, False, f"{path}[{index}]")
    return tuple(data)


def _check_mapping(data, path: str) -> dict:
    if not isinstance(data, dict):
        raise SpecError(
            f"expected a mapping, got {type(data).__name__}", path=path
        )
    return data


def _check_technique(name: str, path: str) -> None:
    try:
        get_executor(name)
    except WorkloadError as error:
        raise SpecError(str(error), path=path) from error


def config_from_dict(
    data: dict, *, cluster: bool = False, path: str = "config"
) -> ServiceConfig:
    """Build a service config from a plain dict, strictly.

    Unknown keys, wrongly-typed values, and out-of-range fields all
    raise :class:`SpecError` with the offending field's dotted path.
    ``n_nodes`` and ``replication`` are known only with ``cluster=True``.
    """
    _check_mapping(data, path)
    kwargs = {}
    for key, value in data.items():
        if key not in _CONFIG_FIELD_TYPES or (
            key in _CLUSTER_CONFIG_KEYS and not cluster
        ):
            hint = " (a cluster-config field?)" if key in _CLUSTER_CONFIG_KEYS else ""
            raise SpecError(f"unknown config field{hint}", path=f"{path}.{key}")
        types, allow_none = _CONFIG_FIELD_TYPES[key]
        kwargs[key] = _check_scalar(value, types, allow_none, f"{path}.{key}")
    if kwargs.get("controller") is not None:
        kwargs["controller"] = _controller_from_dict(
            kwargs["controller"], path=f"{path}.controller"
        )
    try:
        return ServiceConfig(**kwargs)
    except ConfigurationError as error:
        raise SpecError(str(error), path=path) from error


def _controller_from_dict(data: dict, *, path: str) -> ControllerConfig:
    kwargs = {}
    for key, value in data.items():
        if key not in _CONTROLLER_FIELD_TYPES:
            raise SpecError("unknown controller field", path=f"{path}.{key}")
        types, allow_none = _CONTROLLER_FIELD_TYPES[key]
        kwargs[key] = _check_scalar(value, types, allow_none, f"{path}.{key}")
    if "techniques" in kwargs:
        kwargs["techniques"] = _check_list(
            kwargs["techniques"], (str,), f"{path}.techniques"
        )
    try:
        return ControllerConfig(**kwargs)
    except ConfigurationError as error:
        raise SpecError(str(error), path=path) from error


def config_to_dict(config: ServiceConfig) -> dict:
    """The canonical plain-JSON form of a service config."""
    record = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name == "controller":
            value = value.to_dict() if value is not None else None
        record[f.name] = value
    return record


@dataclass(frozen=True)
class Scenario:
    """One reproducible serving experiment, end to end."""

    name: str
    description: str
    arrival_kind: str = "poisson"
    #: Kind-specific arrival knobs (bursty phases, closed-loop think).
    arrival_params: dict = field(default_factory=dict)
    #: Offered load per point, as multiples of sequential capacity.
    loads: tuple[float, ...] = (0.4, 0.9, 1.8, 3.0)
    techniques: tuple[str, ...] = DEFAULT_TECHNIQUES
    table_bytes: int = 4 << 20
    #: Factor for :func:`repro.config.scaled`; 1 = the full Haswell spec.
    arch_scale: int = 64
    n_requests: int = 400
    config: ServiceConfig = field(
        default_factory=lambda: ServiceConfig(
            max_batch=24,
            max_wait_cycles=3000,
            queue_capacity=96,
            overload_policy="reject",
            n_shards=2,
            slo_cycles=30_000,
        )
    )
    #: Default fault profile (``repro.faults``); ``None`` = no chaos.
    #: ``python -m repro serve <name> --faults <profile>`` overrides it.
    fault_profile: str | None = None
    #: Topology preset (see ``repro.cluster.topology``); ``None`` = a
    #: single-system service scenario, anything else a cluster one.
    interconnect: str | None = None
    #: Size of the simulated user population cluster scenarios draw
    #: probe keys from.
    n_users: int = 1_000_000

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("must be a non-empty string", path="name")
        if self.arrival_kind not in ARRIVAL_KINDS:
            raise SpecError(
                f"unknown arrival kind {self.arrival_kind!r} (have: "
                f"{', '.join(sorted(ARRIVAL_KINDS))})",
                path="arrival.kind",
            )
        if not self.loads:
            raise SpecError("must be a non-empty list", path="loads")
        for index, load in enumerate(self.loads):
            if load <= 0:
                raise SpecError(
                    "load multipliers must be positive", path=f"loads[{index}]"
                )
        if not self.techniques:
            raise SpecError("must be a non-empty list", path="techniques")
        for index, name in enumerate(self.techniques):
            _check_technique(name, f"techniques[{index}]")
        controller = self.config.controller
        for index, name in enumerate(controller.techniques if controller else ()):
            _check_technique(name, f"config.controller.techniques[{index}]")
        for name in ("table_bytes", "arch_scale", "n_requests", "n_users"):
            if getattr(self, name) < 1:
                raise SpecError("must be positive", path=name)
        if self.fault_profile is not None:
            try:
                get_fault_profile(self.fault_profile)
            except WorkloadError as error:
                raise SpecError(str(error), path="fault_profile") from error
        if self.interconnect is None:
            if self.config.n_nodes != 1:
                raise SpecError(
                    f"{self.config.n_nodes} nodes need an interconnect preset",
                    path="config.n_nodes",
                )
        elif self.interconnect not in TOPOLOGY_PRESETS:
            raise SpecError(
                f"unknown topology preset {self.interconnect!r} (have: "
                f"{', '.join(sorted(TOPOLOGY_PRESETS))})",
                path="interconnect",
            )

    @property
    def kind(self) -> str:
        """``"cluster"`` with an interconnect, else ``"service"``."""
        return "service" if self.interconnect is None else "cluster"

    def topology(self) -> ClusterTopology:
        """Materialise the scenario's topology (one node without an
        interconnect preset)."""
        if self.interconnect is None:
            return ClusterTopology.single()
        return TOPOLOGY_PRESETS[self.interconnect](self.config.n_nodes)

    # ------------------------------------------------------------------
    # The repro.scenario/1 document
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Parse one ``repro.scenario/1`` document.

        Checks the document's shape here; the constructor checks what
        the values mean. A ``kind: cluster`` document without an
        ``interconnect`` gets the ``planet`` preset.
        """
        if not isinstance(data, dict):
            raise SpecError(
                f"a scenario spec must be a mapping, got {type(data).__name__}"
            )
        for key in data:
            if key not in _TOP_LEVEL_KEYS:
                raise SpecError("unknown field", path=str(key))
        schema = data.get("schema")
        if schema != SCENARIO_SPEC_SCHEMA:
            raise SpecError(
                f"expected {SCENARIO_SPEC_SCHEMA!r}, got {schema!r}",
                path="schema",
            )
        kind = _check_scalar(data.get("kind", "service"), (str,), False, "kind")
        if kind not in SCENARIO_KINDS:
            raise SpecError(
                f"expected one of {SCENARIO_KINDS}, got {kind!r}", path="kind"
            )
        cluster = kind == "cluster"
        if not cluster:
            for key in _CLUSTER_ONLY_KEYS:
                if key in data:
                    raise SpecError("only valid for kind: cluster", path=key)
        arrival = _check_mapping(
            data.get("arrival", {"kind": "poisson", "params": {}}), "arrival"
        )
        for key in arrival:
            if key not in ("kind", "params"):
                raise SpecError("unknown field", path=f"arrival.{key}")
        params = _check_mapping(arrival.get("params", {}), "arrival.params")
        for key, value in params.items():
            _check_scalar(value, _NUMBER, False, f"arrival.params.{key}")

        def scalar(key, default, types=(int,), allow_none=False):
            return _check_scalar(data.get(key, default), types, allow_none, key)

        return cls(
            name=scalar("name", None, (str,)),
            description=scalar("description", "", (str,)),
            arrival_kind=_check_scalar(
                arrival.get("kind", "poisson"), (str,), False, "arrival.kind"
            ),
            arrival_params=dict(params),
            loads=_check_list(
                data.get("loads", [0.4, 0.9, 1.8, 3.0]), _NUMBER, "loads"
            ),
            techniques=_check_list(
                data.get("techniques", list(DEFAULT_TECHNIQUES)),
                (str,),
                "techniques",
            ),
            table_bytes=scalar("table_bytes", 4 << 20),
            arch_scale=scalar("arch_scale", 64),
            n_requests=scalar("n_requests", 400),
            fault_profile=scalar("fault_profile", None, (str,), True),
            config=config_from_dict(data.get("config", {}), cluster=cluster),
            interconnect=(
                scalar("interconnect", "planet", (str,)) if cluster else None
            ),
            n_users=scalar("n_users", 1_000_000),
        )

    def to_dict(self) -> dict:
        """The canonical plain-JSON document (inverse of ``from_dict``)."""
        cluster = self.kind == "cluster"
        config = config_to_dict(self.config)
        if not cluster:
            for key in _CLUSTER_CONFIG_KEYS:
                del config[key]
        record = {
            "schema": SCENARIO_SPEC_SCHEMA,
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "arrival": {
                "kind": self.arrival_kind,
                "params": dict(self.arrival_params),
            },
            "loads": list(self.loads),
            "techniques": list(self.techniques),
            "table_bytes": self.table_bytes,
            "arch_scale": self.arch_scale,
            "n_requests": self.n_requests,
            "fault_profile": self.fault_profile,
            "config": config,
        }
        if cluster:
            record["interconnect"] = self.interconnect
            record["n_users"] = self.n_users
        return record
