"""CLI coverage for the spec surface: ``list``/``serve``/``explain``
accepting ``file:`` references, ``list --json`` emitting serialized
specs, and malformed specs exiting 2 with the offending field path on
stderr.
"""

import json

import pytest

from repro.__main__ import main
from repro.service.scenarios import SCENARIO_REGISTRY, get_scenario


@pytest.fixture()
def quick_spec_file(tmp_path):
    path = tmp_path / "quick.json"
    spec = get_scenario("quick")
    path.write_text(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
    return path


@pytest.fixture()
def malformed_spec_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "schema": "repro.scenario/1",
                "name": "bad",
                "config": {"max_bacth": 16},
            }
        )
    )
    return path


class TestListJson:
    def test_emits_every_registered_scenario_as_its_spec(self, capsys):
        assert main(["list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.list/1"
        by_name = {record["name"]: record for record in doc["scenarios"]}
        assert set(by_name) == set(SCENARIO_REGISTRY)
        for name, scenario in SCENARIO_REGISTRY.items():
            expected = scenario.to_dict()
            assert by_name[name] == expected

    def test_registry_name_ref_prints_its_spec(self, capsys):
        assert main(["list", "quick"]) == 0
        record = json.loads(capsys.readouterr().out)
        expected = get_scenario("quick").to_dict()
        assert record == expected

    def test_file_ref_resolves(self, capsys, quick_spec_file):
        assert main(["list", f"file:{quick_spec_file}", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.list/1"
        assert doc["scenarios"][0]["name"] == "quick"

    def test_malformed_file_exits_2_with_field_path(
        self, capsys, malformed_spec_file
    ):
        assert main(["list", f"file:{malformed_spec_file}"]) == 2
        stderr = capsys.readouterr().err
        assert "config.max_bacth" in stderr

    def test_unknown_name_exits_2(self, capsys):
        assert main(["list", "no-such-scenario"]) == 2


class TestServeFileRefs:
    def test_serve_accepts_a_file_spec(self, capsys, quick_spec_file):
        assert (
            main(
                [
                    "serve",
                    f"file:{quick_spec_file}",
                    "--json",
                    "--seed",
                    "0",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.service/1"
        assert doc["scenario"] == "quick"

    def test_serve_rejects_a_malformed_spec(self, capsys, malformed_spec_file):
        assert main(["serve", f"file:{malformed_spec_file}"]) == 2
        assert "config.max_bacth" in capsys.readouterr().err

    def test_serve_rejects_a_missing_file(self, capsys, tmp_path):
        assert main(["serve", f"file:{tmp_path / 'absent.yaml'}"]) == 2


class TestExplainFileRefs:
    def test_explain_accepts_a_file_spec(self, capsys, quick_spec_file):
        assert (
            main(
                [
                    "explain",
                    f"file:{quick_spec_file}",
                    "--json",
                    "--seed",
                    "0",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.explain/1"
        assert doc["scenario"] == "quick"

    def test_explain_rejects_a_malformed_spec(
        self, capsys, malformed_spec_file
    ):
        assert main(["explain", f"file:{malformed_spec_file}"]) == 2
        assert "config.max_bacth" in capsys.readouterr().err
