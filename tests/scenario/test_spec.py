"""Tests for the ``repro.scenario/1`` declarative spec surface.

The two load-bearing invariants:

* **byte round-trip** — every registry scenario serialises through
  its ``repro.scenario/1`` document and back without changing a byte,
  so a file-loaded twin serves exactly what the registry entry does;
* **strict validation** — unknown keys and out-of-range values raise
  :class:`SpecError` carrying the offending field's dotted path, never
  a silently-defaulted run.
"""

import json
import pathlib
import warnings

import pytest

from repro import api
from repro.errors import SpecError
from repro.scenario import load_spec_file, parse_spec_text, resolve_scenario
from repro.service.loadgen import run_slo_scenario
from repro.service.scenarios import SCENARIO_REGISTRY, Scenario, get_scenario

try:
    import yaml
except ImportError:  # pragma: no cover - pyyaml is in the test image
    yaml = None

REPO = pathlib.Path(__file__).parent.parent.parent
SHIPPED = sorted((REPO / "scenarios").glob("*.*"))


def _all_registry_scenarios():
    return list(SCENARIO_REGISTRY.values())


class TestRegistryRoundTrip:
    @pytest.mark.parametrize(
        "scenario", _all_registry_scenarios(), ids=lambda s: s.name
    )
    def test_byte_identical_dict_round_trip(self, scenario):
        first = json.dumps(scenario.to_dict(), sort_keys=True)
        second = json.dumps(
            Scenario.from_dict(scenario.to_dict()).to_dict(), sort_keys=True
        )
        assert first == second

    @pytest.mark.parametrize(
        "scenario", _all_registry_scenarios(), ids=lambda s: s.name
    )
    def test_reconstructs_an_equal_scenario(self, scenario):
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert type(rebuilt) is type(scenario)
        assert rebuilt == scenario

    def test_resolve_by_name_equals_registry_entry(self):
        assert resolve_scenario("quick") == get_scenario("quick")

    def test_cluster_spec_kind(self):
        spec = get_scenario("planet-quick")
        assert spec.kind == "cluster"
        assert "interconnect" in spec.to_dict()
        scenario = Scenario.from_dict(spec.to_dict())
        assert scenario.kind == "cluster"
        assert scenario.config.n_nodes == 4

    def test_service_spec_omits_cluster_keys(self):
        record = get_scenario("quick").to_dict()
        assert "interconnect" not in record
        assert "n_users" not in record


class TestStrictValidation:
    def _minimal(self, **overrides):
        record = {"schema": "repro.scenario/1", "name": "t"}
        record.update(overrides)
        return record

    def test_missing_schema_tag(self):
        with pytest.raises(SpecError, match="schema"):
            Scenario.from_dict({"name": "t"})

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="wat: unknown field"):
            Scenario.from_dict(self._minimal(wat=1))

    def test_unknown_config_field_has_dotted_path(self):
        with pytest.raises(SpecError, match=r"config\.max_bacth"):
            Scenario.from_dict(
                self._minimal(config={"max_bacth": 16})
            )

    def test_cluster_config_field_hint_on_service_kind(self):
        with pytest.raises(SpecError, match="cluster-config field"):
            Scenario.from_dict(self._minimal(config={"n_nodes": 4}))

    def test_out_of_range_controller_value_has_path(self):
        with pytest.raises(
            SpecError, match=r"config\.controller: controller window"
        ):
            Scenario.from_dict(
                self._minimal(config={"controller": {"window_cycles": 0}})
            )

    def test_wrongly_typed_config_value(self):
        with pytest.raises(SpecError, match=r"config\.max_batch"):
            Scenario.from_dict(self._minimal(config={"max_batch": "big"}))

    def test_boolean_is_not_an_int(self):
        with pytest.raises(SpecError, match=r"config\.max_batch"):
            Scenario.from_dict(self._minimal(config={"max_batch": True}))

    def test_unknown_controller_field_has_path(self):
        with pytest.raises(SpecError, match=r"config\.controller\.window"):
            Scenario.from_dict(
                self._minimal(config={"controller": {"window": 1}})
            )

    def test_unknown_controller_technique_has_indexed_path(self):
        with pytest.raises(
            SpecError, match=r"config\.controller\.techniques\[1\]"
        ):
            Scenario.from_dict(
                self._minimal(
                    config={
                        "controller": {"techniques": ["CORO", "warpdrive"]}
                    }
                )
            )

    def test_cluster_only_keys_rejected_for_service_kind(self):
        with pytest.raises(SpecError, match="interconnect"):
            Scenario.from_dict(self._minimal(interconnect="planet"))

    def test_unknown_arrival_kind(self):
        with pytest.raises(SpecError, match="arrival"):
            Scenario.from_dict(self._minimal(arrival={"kind": "uniform"}))

    def test_unknown_fault_profile(self):
        with pytest.raises(SpecError, match="fault_profile"):
            Scenario.from_dict(self._minimal(fault_profile="gremlins"))

    def test_unknown_technique(self):
        with pytest.raises(SpecError, match="techniques"):
            Scenario.from_dict(self._minimal(techniques=["warpdrive"]))


class TestParsing:
    def test_json_text(self):
        spec = parse_spec_text(
            json.dumps({"schema": "repro.scenario/1", "name": "t"})
        )
        assert spec.name == "t"

    def test_forced_json_rejects_yaml(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            parse_spec_text("name: t", format="json")

    @pytest.mark.skipif(yaml is None, reason="pyyaml not installed")
    def test_yaml_text(self):
        spec = parse_spec_text(
            "schema: repro.scenario/1\nname: t\nloads: [0.5]\n"
        )
        assert spec.loads == (0.5,)

    def test_parse_error_carries_source_and_path_once(self):
        with pytest.raises(SpecError) as exc_info:
            parse_spec_text(
                json.dumps(
                    {
                        "schema": "repro.scenario/1",
                        "name": "t",
                        "config": {"max_bacth": 1},
                    }
                ),
                source="my.json",
            )
        message = str(exc_info.value)
        assert message.count("config.max_bacth") == 1
        assert message.startswith("my.json:")

    def test_load_spec_file_missing(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_spec_file(tmp_path / "absent.yaml")

    def test_file_ref_resolution(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"schema": "repro.scenario/1", "name": "from-file"})
        )
        assert resolve_scenario(f"file:{path}").name == "from-file"

    def test_resolve_scenario_rejects_garbage(self):
        with pytest.raises(SpecError, match="reference"):
            resolve_scenario(42)


class TestShippedSpecs:
    def test_the_catalogue_is_populated(self):
        assert len(SHIPPED) >= 8

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
    def test_every_shipped_spec_parses(self, path):
        if path.suffix in (".yaml", ".yml") and yaml is None:
            pytest.skip("pyyaml not installed")
        spec = load_spec_file(path)
        assert spec.name

    @pytest.mark.parametrize(
        "filename, registered",
        [
            ("controller-quick.yaml", "controller-quick"),
            ("phase-shift.json", "phase-shift"),
        ],
    )
    def test_registry_mirrors_resolve_equal(self, filename, registered):
        """The shipped twins of registry scenarios cannot drift."""
        if filename.endswith(".yaml") and yaml is None:
            pytest.skip("pyyaml not installed")
        resolved = resolve_scenario(f"file:{REPO / 'scenarios' / filename}")
        assert resolved == get_scenario(registered)


class TestDeprecatedScenarioKeyword:
    """The ``scenario=`` keyword is gone; the positional form is the API."""

    def test_run_slo_scenario_requires_a_reference(self):
        with pytest.raises(TypeError, match="spec"):
            run_slo_scenario()

    def test_both_spec_and_scenario_rejected(self):
        with pytest.raises(TypeError, match="scenario"):
            run_slo_scenario("quick", scenario="quick")

    def test_positional_reference_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.serve("quick")

