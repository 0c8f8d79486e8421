"""``repro.scenario/1``: the declarative scenario spec.

:class:`ScenarioSpec` is the one frozen surface over
:class:`~repro.service.scenarios.Scenario` and the SLO-run kwargs,
behind a versioned plain-data document:

.. code-block:: yaml

    schema: repro.scenario/1
    name: flash-crowd
    kind: service            # or "cluster"
    arrival: {kind: bursty, params: {burst_cycles: 20000}}
    loads: [0.8, 1.6]
    techniques: [sequential, CORO]
    config: {max_batch: 24, overload_policy: shed, ...}
    fault_profile: chaos     # optional

``from_dict`` validates **strictly**: unknown keys and out-of-range
values raise :class:`~repro.errors.SpecError` carrying the dotted path
of the offending field (``config.max_batch``, ``arrival.kind``) instead
of silently ignoring extras — a typo'd knob fails loudly at parse time,
never as a mysteriously-default run. ``to_dict`` emits the canonical
plain-JSON form; registry scenarios round-trip through it byte-
identically (pinned by tests), which is what lets every serving entry
point route through this one surface without changing a single output.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.cluster.topology import TOPOLOGY_PRESETS
from repro.control import ControllerConfig
from repro.errors import ConfigurationError, SpecError, WorkloadError
from repro.faults.schedule import get_fault_profile
from repro.interleaving.executor import get_executor
from repro.service.arrivals import ARRIVAL_KINDS
from repro.service.scenarios import Scenario
from repro.service.server import ServiceConfig

__all__ = [
    "SCENARIO_SPEC_SCHEMA",
    "SCENARIO_KINDS",
    "ScenarioSpec",
    "config_from_dict",
    "config_to_dict",
]

#: Schema tag every spec document must carry.
SCENARIO_SPEC_SCHEMA = "repro.scenario/1"

#: Scenario shapes the spec distinguishes.
SCENARIO_KINDS = ("service", "cluster")

#: Top-level keys a spec document may carry (cluster-only keys included;
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

#: Config fields only a ``kind: cluster`` spec may set.
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


def config_from_dict(
    data: dict, *, cluster: bool = False, path: str = "config"
) -> ServiceConfig:
    """Build a service config from a plain dict, strictly.

    Unknown keys, wrongly-typed values, and out-of-range fields all
    raise :class:`SpecError` with the offending field's dotted path —
    the repair for the historic silent-extras behaviour of handing
    ``ServiceConfig(**d)``-shaped dicts around. ``n_nodes`` and
    ``replication`` are known only with ``cluster=True``.
    """
    if not isinstance(data, dict):
        raise SpecError(
            f"expected a mapping, got {type(data).__name__}", path=path
        )
    kwargs = {}
    for key, value in data.items():
        if key not in _CONFIG_FIELD_TYPES or (
            key in _CLUSTER_CONFIG_KEYS and not cluster
        ):
            hint = " (a cluster-config field?)" if key in _CLUSTER_CONFIG_KEYS else ""
            raise SpecError(f"unknown config field{hint}", path=f"{path}.{key}")
        types, allow_none = _CONFIG_FIELD_TYPES[key]
        _check_scalar(value, types, allow_none, f"{path}.{key}")
        kwargs[key] = value
    if "controller" in kwargs and kwargs["controller"] is not None:
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
        _check_scalar(value, types, allow_none, f"{path}.{key}")
        kwargs[key] = value
    if "techniques" in kwargs:
        techniques = []
        for index, name in enumerate(kwargs["techniques"]):
            item_path = f"{path}.techniques[{index}]"
            _check_scalar(name, (str,), False, item_path)
            _check_technique(name, item_path)
            techniques.append(name)
        kwargs["techniques"] = tuple(techniques)
    try:
        return ControllerConfig(**kwargs)
    except ConfigurationError as error:
        raise SpecError(str(error), path=path) from error


def _check_technique(name: str, path: str) -> None:
    try:
        get_executor(name)
    except WorkloadError as error:
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
class ScenarioSpec:
    """The unified, declarative form of one serving scenario."""

    name: str
    kind: str = "service"
    description: str = ""
    arrival_kind: str = "poisson"
    arrival_params: dict = field(default_factory=dict)
    loads: tuple[float, ...] = (0.4, 0.9, 1.8, 3.0)
    techniques: tuple[str, ...] = ("sequential", "GP", "AMAC", "CORO")
    table_bytes: int = 4 << 20
    arch_scale: int = 64
    n_requests: int = 400
    fault_profile: str | None = None
    config: ServiceConfig = field(default_factory=ServiceConfig)
    #: Cluster-only: topology preset and simulated-user population.
    interconnect: str = "planet"
    n_users: int = 1_000_000

    # ------------------------------------------------------------------
    # Dict round-trip
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Parse and strictly validate one spec document."""
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
        name = _check_scalar(data.get("name"), (str,), False, "name")
        if not name:
            raise SpecError("must be a non-empty string", path="name")
        kind = _check_scalar(data.get("kind", "service"), (str,), False, "kind")
        if kind not in SCENARIO_KINDS:
            raise SpecError(
                f"expected one of {SCENARIO_KINDS}, got {kind!r}", path="kind"
            )
        if kind != "cluster":
            for key in _CLUSTER_ONLY_KEYS:
                if key in data:
                    raise SpecError(
                        "only valid for kind: cluster", path=key
                    )
        description = _check_scalar(
            data.get("description", ""), (str,), False, "description"
        )
        arrival_kind, arrival_params = cls._parse_arrival(
            data.get("arrival", {"kind": "poisson", "params": {}})
        )
        loads = cls._parse_loads(data.get("loads", [0.4, 0.9, 1.8, 3.0]))
        techniques = cls._parse_techniques(
            data.get("techniques", ["sequential", "GP", "AMAC", "CORO"])
        )
        table_bytes = _check_scalar(
            data.get("table_bytes", 4 << 20), (int,), False, "table_bytes"
        )
        if table_bytes < 1:
            raise SpecError("must be positive", path="table_bytes")
        arch_scale = _check_scalar(
            data.get("arch_scale", 64), (int,), False, "arch_scale"
        )
        if arch_scale < 1:
            raise SpecError("must be positive", path="arch_scale")
        n_requests = _check_scalar(
            data.get("n_requests", 400), (int,), False, "n_requests"
        )
        if n_requests < 1:
            raise SpecError("must be positive", path="n_requests")
        fault_profile = _check_scalar(
            data.get("fault_profile"), (str,), True, "fault_profile"
        )
        if fault_profile is not None:
            try:
                get_fault_profile(fault_profile)
            except WorkloadError as error:
                raise SpecError(str(error), path="fault_profile") from error
        config = config_from_dict(
            data.get("config", {}), cluster=(kind == "cluster")
        )
        interconnect = _check_scalar(
            data.get("interconnect", "planet"), (str,), False, "interconnect"
        )
        if kind == "cluster" and interconnect not in TOPOLOGY_PRESETS:
            raise SpecError(
                f"unknown topology preset {interconnect!r} (have: "
                f"{', '.join(sorted(TOPOLOGY_PRESETS))})",
                path="interconnect",
            )
        n_users = _check_scalar(
            data.get("n_users", 1_000_000), (int,), False, "n_users"
        )
        if n_users < 1:
            raise SpecError("must be positive", path="n_users")
        return cls(
            name=name,
            kind=kind,
            description=description,
            arrival_kind=arrival_kind,
            arrival_params=arrival_params,
            loads=loads,
            techniques=techniques,
            table_bytes=table_bytes,
            arch_scale=arch_scale,
            n_requests=n_requests,
            fault_profile=fault_profile,
            config=config,
            interconnect=interconnect,
            n_users=n_users,
        )

    @staticmethod
    def _parse_arrival(data) -> tuple[str, dict]:
        if not isinstance(data, dict):
            raise SpecError(
                f"expected a mapping, got {type(data).__name__}", path="arrival"
            )
        for key in data:
            if key not in ("kind", "params"):
                raise SpecError("unknown field", path=f"arrival.{key}")
        kind = _check_scalar(
            data.get("kind", "poisson"), (str,), False, "arrival.kind"
        )
        if kind not in ARRIVAL_KINDS:
            raise SpecError(
                f"unknown arrival kind (have: "
                f"{', '.join(sorted(ARRIVAL_KINDS))})",
                path="arrival.kind",
            )
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise SpecError(
                f"expected a mapping, got {type(params).__name__}",
                path="arrival.params",
            )
        for key, value in params.items():
            _check_scalar(value, _NUMBER, False, f"arrival.params.{key}")
        return kind, dict(params)

    @staticmethod
    def _parse_loads(data) -> tuple[float, ...]:
        if not isinstance(data, (list, tuple)) or not data:
            raise SpecError("must be a non-empty list", path="loads")
        loads = []
        for index, value in enumerate(data):
            _check_scalar(value, _NUMBER, False, f"loads[{index}]")
            if value <= 0:
                raise SpecError(
                    "load multipliers must be positive", path=f"loads[{index}]"
                )
            loads.append(value)
        return tuple(loads)

    @staticmethod
    def _parse_techniques(data) -> tuple[str, ...]:
        if not isinstance(data, (list, tuple)) or not data:
            raise SpecError("must be a non-empty list", path="techniques")
        techniques = []
        for index, name in enumerate(data):
            item_path = f"techniques[{index}]"
            _check_scalar(name, (str,), False, item_path)
            _check_technique(name, item_path)
            techniques.append(name)
        return tuple(techniques)

    def to_dict(self) -> dict:
        """The canonical plain-JSON document (inverse of ``from_dict``)."""
        config = config_to_dict(self.config)
        if self.kind != "cluster":
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
        if self.kind == "cluster":
            record["interconnect"] = self.interconnect
            record["n_users"] = self.n_users
        return record

    # ------------------------------------------------------------------
    # Scenario round-trip
    # ------------------------------------------------------------------

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "ScenarioSpec":
        """Serialise an existing (registry) scenario object."""
        kwargs = dict(
            name=scenario.name,
            kind=scenario.kind,
            description=scenario.description,
            arrival_kind=scenario.arrival_kind,
            arrival_params=dict(scenario.arrival_params or {}),
            loads=tuple(scenario.loads),
            techniques=tuple(scenario.techniques),
            table_bytes=scenario.table_bytes,
            arch_scale=scenario.arch_scale,
            n_requests=scenario.n_requests,
            fault_profile=scenario.fault_profile,
            config=scenario.config,
        )
        if scenario.kind == "cluster":
            kwargs["interconnect"] = scenario.interconnect
            kwargs["n_users"] = scenario.n_users
        return cls(**kwargs)

    def to_scenario(self) -> Scenario:
        """Materialise the runnable scenario object."""
        kwargs = dict(
            name=self.name,
            description=self.description,
            arrival_kind=self.arrival_kind,
            arrival_params=dict(self.arrival_params),
            loads=self.loads,
            techniques=self.techniques,
            table_bytes=self.table_bytes,
            arch_scale=self.arch_scale,
            n_requests=self.n_requests,
            config=self.config,
            fault_profile=self.fault_profile,
        )
        if self.kind == "cluster":
            kwargs.update(interconnect=self.interconnect, n_users=self.n_users)
        try:
            return Scenario(**kwargs)
        except ConfigurationError as error:
            raise SpecError(str(error)) from error
