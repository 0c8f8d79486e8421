"""repro.scenario — the scenario type and its ``repro.scenario/1`` form.

One frozen :class:`Scenario` is both the runnable serving experiment
and a versioned JSON/YAML document; its ``kind`` (service or cluster)
is the one multi-node decision. ``python -m repro serve
file:scenario.yaml`` works alongside registry names; see
:mod:`repro.scenario.spec` for the type and format and
:mod:`repro.scenario.io` for loading and resolution.
"""

from repro.scenario.io import (
    FILE_PREFIX,
    load_spec_file,
    parse_spec_text,
    resolve_scenario,
)
from repro.scenario.spec import (
    SCENARIO_KINDS,
    SCENARIO_SPEC_SCHEMA,
    Scenario,
    config_from_dict,
    config_to_dict,
)

__all__ = [
    "FILE_PREFIX",
    "SCENARIO_KINDS",
    "SCENARIO_SPEC_SCHEMA",
    "Scenario",
    "config_from_dict",
    "config_to_dict",
    "load_spec_file",
    "parse_spec_text",
    "resolve_scenario",
]
