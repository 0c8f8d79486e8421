"""Named serving scenarios: reproducible online-load experiments.

A :class:`Scenario` bundles everything ``python -m repro serve <name>``
needs: the probed table, the arrival shape, the admission/coalescing
configuration, the candidate techniques, and the offered-load grid. Load
points are expressed as **multipliers of the sequential executor's
calibrated capacity** (measured at run time by
:mod:`repro.service.loadgen`), so "2.0" always means "twice what the
non-interleaved server could possibly sustain" regardless of table size
or architecture scale — the robustness story's x-axis.

Scenarios default to a :func:`~repro.config.scaled` architecture so the
table overflows the (shrunken) LLC in seconds of real time; the
simulated physics — LFB-bounded MLP, switch-overhead economics — are
unchanged (latencies and the cost model do not scale).

The registry mirrors ``EXECUTOR_REGISTRY``: decorate a ``Scenario``
with :func:`register_scenario` and the CLI, the benchmarks, and
``python -m repro list`` all pick it up.

A scenario with an ``interconnect`` preset is a *cluster* scenario
(``kind: cluster`` in its ``repro.scenario/1`` spec): its config
spreads ``n_nodes`` x ``n_shards`` shards over a routed fleet, and its
traffic knows about geography — the planet scenarios draw millions of
simulated users through a diurnal, region-rotating arrival mix, map
each region onto the topology's nodes, and, in the chaos variants,
kill whole nodes mid-run via the ``cluster-chaos`` fault profile.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field

from repro.cluster.topology import TOPOLOGY_PRESETS, ClusterTopology
from repro.control import ControllerConfig
from repro.errors import ConfigurationError, WorkloadError
from repro.faults.schedule import get_fault_profile
from repro.service.arrivals import ARRIVAL_KINDS
from repro.service.server import ServiceConfig

__all__ = [
    "Scenario",
    "SCENARIO_REGISTRY",
    "register_scenario",
    "get_scenario",
    "scenario_names",
]

#: The four serving techniques the robustness story compares.
DEFAULT_TECHNIQUES = ("sequential", "GP", "AMAC", "CORO")


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
        if self.arrival_kind not in ARRIVAL_KINDS:
            raise ConfigurationError(
                f"scenario {self.name!r}: unknown arrival kind "
                f"{self.arrival_kind!r} (have: {', '.join(sorted(ARRIVAL_KINDS))})"
            )
        if not self.loads or any(load <= 0 for load in self.loads):
            raise ConfigurationError(
                f"scenario {self.name!r}: loads must be positive multipliers"
            )
        if not self.techniques:
            raise ConfigurationError(f"scenario {self.name!r}: no techniques")
        if self.fault_profile is not None:
            get_fault_profile(self.fault_profile)  # raises on unknown names
        if self.interconnect is None:
            if self.config.n_nodes != 1:
                raise ConfigurationError(
                    f"scenario {self.name!r}: {self.config.n_nodes} nodes "
                    "need an interconnect preset"
                )
        elif self.interconnect not in TOPOLOGY_PRESETS:
            raise ConfigurationError(
                f"scenario {self.name!r}: unknown interconnect preset "
                f"{self.interconnect!r} (have: "
                f"{', '.join(sorted(TOPOLOGY_PRESETS))})"
            )
        if self.n_users < 1:
            raise ConfigurationError(
                f"scenario {self.name!r}: needs at least one simulated user"
            )

    @property
    def kind(self) -> str:
        """The spec kind: ``"cluster"`` with an interconnect, else
        ``"service"``."""
        return "service" if self.interconnect is None else "cluster"

    def topology(self) -> ClusterTopology:
        """Materialise the scenario's topology (one node without an
        interconnect preset)."""
        if self.interconnect is None:
            return ClusterTopology.single()
        return TOPOLOGY_PRESETS[self.interconnect](self.config.n_nodes)


#: Registered scenarios, keyed by lower-cased name.
SCENARIO_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Register a scenario for the CLI/benchmarks; names are unique."""
    key = scenario.name.lower()
    if key in SCENARIO_REGISTRY:
        raise ConfigurationError(f"duplicate scenario name {key!r}")
    SCENARIO_REGISTRY[key] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name (case-insensitive).

    Unknown names raise :class:`WorkloadError` (the CLI maps it to the
    documented usage exit code 2), suggesting the closest registered
    name when one is plausibly a typo.
    """
    scenario = SCENARIO_REGISTRY.get(str(name).lower())
    if scenario is None:
        message = (
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}"
        )
        close = difflib.get_close_matches(
            str(name).lower(), list(SCENARIO_REGISTRY), n=1
        )
        if close:
            message += f" (did you mean {SCENARIO_REGISTRY[close[0]].name!r}?)"
        raise WorkloadError(message)
    return scenario


def scenario_names() -> list[str]:
    """Canonical scenario names, in registration order."""
    return [scenario.name for scenario in SCENARIO_REGISTRY.values()]


# ----------------------------------------------------------------------
# The built-in scenarios
# ----------------------------------------------------------------------

register_scenario(
    Scenario(
        name="mixed",
        description=(
            "Poisson arrivals swept from light load to 3x sequential "
            "capacity over a DRAM-resident dictionary; all four "
            "techniques. The robustness headline: where does each "
            "technique's latency knee sit?"
        ),
    )
)

register_scenario(
    Scenario(
        name="steady",
        description=(
            "A single comfortable operating point (60% of sequential "
            "capacity): the latency floor and batch-formation overhead "
            "when nothing is under pressure."
        ),
        loads=(0.6,),
    )
)

register_scenario(
    Scenario(
        name="burst",
        description=(
            "On/off traffic: 20k-cycle bursts at 2.5x the average rate "
            "separated by 40k-cycle lulls. Exercises the coalescer "
            "deadline during lulls and the bounded queue during bursts."
        ),
        arrival_kind="bursty",
        arrival_params={"burst_cycles": 20_000, "gap_cycles": 40_000},
        loads=(0.8, 1.6),
        config=ServiceConfig(
            max_batch=24,
            max_wait_cycles=3000,
            queue_capacity=96,
            overload_policy="shed",
            n_shards=2,
            slo_cycles=30_000,
        ),
    )
)

register_scenario(
    Scenario(
        name="closed",
        description=(
            "A fixed client population with 8k-cycle think time (a "
            "closed loop, CoroBase-style): offered load self-throttles "
            "to completion rate, so the comparison isolates service "
            "capacity rather than queue blow-up."
        ),
        arrival_kind="closed",
        arrival_params={"think_cycles": 8_000},
        loads=(0.9, 1.8),
        n_requests=300,
    )
)

#: Resilience knobs the chaos scenarios share: bounded crash retries,
#: hedged dispatch under queueing, Inequality-1 degradation, and the
#: overflow lane as the everything-is-down fallback.
_CHAOS_CONFIG = ServiceConfig(
    max_batch=24,
    max_wait_cycles=3000,
    queue_capacity=96,
    overload_policy="reject",
    n_shards=2,
    slo_cycles=30_000,
    max_retries=2,
    retry_backoff_cycles=1500,
    hedge_after_cycles=9000,
    degradation="adaptive",
    overflow_fallback=True,
)

register_scenario(
    Scenario(
        name="chaos",
        description=(
            "The mixed sweep under the full fault cocktail (latency "
            "spikes + shard outages + cache storms) with every "
            "resilience response armed: the robustness claim under "
            "memory that actually misbehaves."
        ),
        techniques=("sequential", "CORO"),
        loads=(0.5, 1.5, 3.0),
        fault_profile="chaos",
        config=_CHAOS_CONFIG,
    )
)

register_scenario(
    Scenario(
        name="chaos-quick",
        description=(
            "CI chaos smoke: sequential vs CORO under the chaos-quick "
            "profile (one spike, one crash, one flush, one LFB shrink) "
            "over a small table. Seconds, not minutes."
        ),
        techniques=("sequential", "CORO"),
        loads=(0.5, 2.5),
        table_bytes=2 << 20,
        n_requests=160,
        fault_profile="chaos-quick",
        config=ServiceConfig(
            max_batch=16,
            max_wait_cycles=2500,
            queue_capacity=48,
            overload_policy="reject",
            n_shards=2,
            warmup_requests=16,
            slo_cycles=25_000,
            max_retries=2,
            retry_backoff_cycles=1500,
            hedge_after_cycles=9000,
            degradation="adaptive",
            overflow_fallback=True,
        ),
    )
)

register_scenario(
    Scenario(
        name="plans",
        description=(
            "Plan-shaped serving: every batch runs as a repro.query "
            "streaming index-join plan (batch values as the outer side, "
            "the served table as the inner index) instead of a raw bulk "
            "lookup. Same calibrated cycles per probe; exercises the "
            "operator path under online load."
        ),
        techniques=("sequential", "CORO"),
        loads=(0.6, 1.8),
        table_bytes=2 << 20,
        n_requests=200,
        config=ServiceConfig(
            max_batch=16,
            max_wait_cycles=2500,
            queue_capacity=48,
            overload_policy="reject",
            n_shards=2,
            warmup_requests=16,
            slo_cycles=25_000,
            request_kind="plan",
        ),
    )
)

register_scenario(
    Scenario(
        name="controller-quick",
        description=(
            "CI control-plane smoke: the quick sweep served under the "
            "adaptive controller — tumbling-window technique/group/"
            "deadline/shard decisions, every one a cycle-stamped "
            "control.* event. Seconds, not minutes."
        ),
        techniques=("CORO",),
        loads=(0.5, 2.5),
        table_bytes=2 << 20,
        n_requests=160,
        config=ServiceConfig(
            max_batch=16,
            max_wait_cycles=2500,
            queue_capacity=48,
            overload_policy="reject",
            n_shards=2,
            warmup_requests=16,
            slo_cycles=25_000,
            controller=ControllerConfig(
                window_cycles=8_000,
                techniques=("sequential", "CORO"),
            ),
        ),
    )
)

register_scenario(
    Scenario(
        name="phase-shift",
        description=(
            "Bursty load over alternating calm/storm horizon quarters "
            "(the phase-shift fault profile) with the adaptive "
            "controller on: the regime changes mid-run, so the "
            "controller's windowed deadline/group/overflow decisions — "
            "not any one static technique/group choice — carry the "
            "tail."
        ),
        arrival_kind="bursty",
        arrival_params={"burst_cycles": 20_000, "gap_cycles": 30_000},
        techniques=("CORO",),
        loads=(1.2,),
        table_bytes=2 << 20,
        n_requests=240,
        fault_profile="phase-shift",
        config=ServiceConfig(
            max_batch=16,
            max_wait_cycles=2500,
            queue_capacity=48,
            overload_policy="reject",
            n_shards=2,
            warmup_requests=16,
            slo_cycles=25_000,
            max_retries=2,
            retry_backoff_cycles=1500,
            hedge_after_cycles=9000,
            controller=ControllerConfig(
                window_cycles=4_000,
                # No technique candidates: under strongly bursty
                # arrivals a lull switch to sequential eats the next
                # burst's head (the window lag), so the deadline/group/
                # overflow actuators carry this scenario.
                consolidate_shards=False,
            ),
        ),
    )
)

register_scenario(
    Scenario(
        name="quick",
        description=(
            "CI smoke: sequential vs CORO at an easy and an overloaded "
            "point over a small table. Seconds, not minutes."
        ),
        techniques=("sequential", "CORO"),
        loads=(0.5, 2.5),
        table_bytes=2 << 20,
        n_requests=160,
        config=ServiceConfig(
            max_batch=16,
            max_wait_cycles=2500,
            queue_capacity=48,
            overload_policy="reject",
            n_shards=2,
            warmup_requests=16,
            slo_cycles=25_000,
        ),
    )
)


#: Resilience knobs the planet scenarios arm — the chaos-grade settings
#: plus replication, so node crashes are something routing can answer.
def _planet_config(
    *, n_nodes: int, n_shards: int, quick: bool
) -> ServiceConfig:
    return ServiceConfig(
        max_batch=16 if quick else 24,
        max_wait_cycles=2500 if quick else 3000,
        queue_capacity=48 if quick else 96,
        overload_policy="reject",
        n_shards=n_shards,
        warmup_requests=16 if quick else 32,
        slo_cycles=25_000 if quick else 30_000,
        max_retries=2,
        retry_backoff_cycles=1500,
        hedge_after_cycles=9000,
        degradation="adaptive",
        overflow_fallback=True,
        n_nodes=n_nodes,
        replication=2,
    )


register_scenario(
    Scenario(
        name="planet",
        description=(
            "Eight nodes across four pods, 2.5M simulated users on "
            "follow-the-sun diurnal traffic over eight regions, R=2 "
            "consistent-hash routing, and whole-node crashes and "
            "brown-outs from the cluster-chaos profile: the robustness "
            "claim at fleet scale."
        ),
        arrival_kind="diurnal",
        arrival_params={
            "n_regions": 8,
            "day_cycles": 120_000,
            "amplitude": 0.8,
        },
        techniques=("sequential", "CORO"),
        loads=(0.6, 1.8),
        table_bytes=4 << 20,
        n_requests=400,
        fault_profile="cluster-chaos",
        config=_planet_config(n_nodes=8, n_shards=2, quick=False),
        interconnect="planet",
        n_users=2_500_000,
    )
)

register_scenario(
    Scenario(
        name="planet-quick",
        description=(
            "CI planet smoke: four nodes, diurnal traffic over four "
            "regions, R=2 routing, node crashes from cluster-chaos. "
            "Seconds, not minutes."
        ),
        arrival_kind="diurnal",
        arrival_params={
            "n_regions": 4,
            "day_cycles": 60_000,
            "amplitude": 0.8,
        },
        techniques=("sequential", "CORO"),
        loads=(0.5, 2.0),
        table_bytes=1 << 20,
        n_requests=160,
        fault_profile="cluster-chaos",
        config=_planet_config(n_nodes=4, n_shards=1, quick=True),
        interconnect="planet",
        n_users=50_000,
    )
)

register_scenario(
    Scenario(
        name="cluster-steady",
        description=(
            "Four routed nodes at comfortable Poisson load with no "
            "chaos: the interconnect-and-routing overhead floor, and "
            "the baseline the planet chaos numbers are read against."
        ),
        arrival_kind="poisson",
        techniques=("sequential", "CORO"),
        loads=(0.6, 1.2),
        table_bytes=2 << 20,
        n_requests=240,
        config=ServiceConfig(
            max_batch=24,
            max_wait_cycles=3000,
            queue_capacity=96,
            overload_policy="reject",
            n_shards=2,
            slo_cycles=30_000,
            n_nodes=4,
            replication=2,
        ),
        interconnect="planet",
        n_users=200_000,
    )
)
