"""A scenario built in Python meets the same checks as one read from a file.

Every semantic check runs when a :class:`Scenario` is constructed and
raises :class:`SpecError` with the same dotted path ``from_dict``
reports, so a bad value fails at once with the field's name — never deep
inside a sweep as a ``WorkloadError`` or ``IndexStructureError``.
"""

import pytest

from repro import Scenario
from repro.control import ControllerConfig
from repro.errors import SpecError
from repro.service.server import ServiceConfig


def _build(**overrides):
    return Scenario(**{"name": "t", "description": "", **overrides})


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"name": ""}, "name"),
        ({"techniques": ("warpdrive",)}, "techniques[0]"),
        ({"techniques": ("CORO", "warpdrive")}, "techniques[1]"),
        ({"techniques": ()}, "techniques"),
        ({"table_bytes": 0}, "table_bytes"),
        ({"n_requests": 0}, "n_requests"),
        ({"arch_scale": 0}, "arch_scale"),
        ({"n_users": 0}, "n_users"),
        ({"loads": ()}, "loads"),
        ({"loads": (0.5, 0.0)}, "loads[1]"),
        ({"arrival_kind": "uniform"}, "arrival.kind"),
        ({"fault_profile": "gremlins"}, "fault_profile"),
        ({"interconnect": "hyperloop"}, "interconnect"),
        ({"config": ServiceConfig(n_nodes=2)}, "config.n_nodes"),
        (
            {
                "config": ServiceConfig(
                    controller=ControllerConfig(techniques=("CORO", "warpdrive"))
                )
            },
            "config.controller.techniques[1]",
        ),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_python_built_scenario_is_checked_at_construction(overrides, path):
    with pytest.raises(SpecError) as exc_info:
        _build(**overrides)
    assert exc_info.value.path == path
    assert str(exc_info.value).startswith(f"{path}: ")


def test_file_and_python_paths_agree():
    record = {
        "schema": "repro.scenario/1",
        "name": "t",
        "techniques": ["warpdrive"],
    }
    with pytest.raises(SpecError) as from_file:
        Scenario.from_dict(record)
    with pytest.raises(SpecError) as from_python:
        _build(techniques=("warpdrive",))
    assert from_file.value.path == from_python.value.path == "techniques[0]"


def test_kind_follows_the_interconnect():
    assert _build().kind == "service"
    cluster = _build(interconnect="planet", config=ServiceConfig(n_nodes=2))
    assert cluster.kind == "cluster"
    assert cluster.to_dict()["interconnect"] == "planet"


def test_cluster_document_without_interconnect_defaults_to_planet():
    scenario = Scenario.from_dict(
        {"schema": "repro.scenario/1", "name": "t", "kind": "cluster"}
    )
    assert scenario.kind == "cluster"
    assert scenario.interconnect == "planet"
