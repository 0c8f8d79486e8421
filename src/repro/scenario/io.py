"""Loading scenario specs: ``file:`` refs, JSON/YAML parsing, resolution.

:func:`resolve_scenario` is the single coercion point every serving
entry surface shares (the facade, the loadgens, the CLI): it accepts a
registry name, a ``file:scenario.yaml`` reference, a plain dict, a
:class:`~repro.scenario.spec.ScenarioSpec`, or an already-built
:class:`~repro.service.scenarios.Scenario` — and funnels *everything*
through one ``from_dict``/``to_dict`` round trip, so a scenario that
reaches a server has by construction survived the strict spec
validation. Registry scenarios round-trip byte-identically (pinned by
tests), which keeps every existing output unchanged.

YAML parsing is gated on :mod:`yaml` being importable; JSON always
works. Malformed documents raise :class:`~repro.errors.SpecError`,
which the CLI maps to the documented usage exit code 2.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import SpecError
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "FILE_PREFIX",
    "parse_spec_text",
    "load_spec_file",
    "resolve_spec",
    "resolve_scenario",
]

#: CLI/facade reference prefix selecting a spec file over a registry name.
FILE_PREFIX = "file:"

try:  # pragma: no cover - exercised via both branches in tests
    import yaml as _yaml
except ImportError:  # pragma: no cover
    _yaml = None


def parse_spec_text(
    text: str, *, format: str | None = None, source: str = "<spec>"
) -> ScenarioSpec:
    """Parse one JSON or YAML spec document into a validated spec.

    ``format`` forces ``"json"`` or ``"yaml"``; ``None`` tries JSON
    first and falls back to YAML when available (YAML is a JSON
    superset, so the fallback also rescues JSON-ish documents with
    comments or unquoted keys).
    """
    if format not in (None, "json", "yaml"):
        raise SpecError(f"unknown spec format {format!r}")
    data = None
    if format in (None, "json"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            if format == "json":
                raise SpecError(f"{source}: invalid JSON: {error}") from error
    if data is None:
        if _yaml is None:
            raise SpecError(
                f"{source}: not valid JSON and PyYAML is not installed "
                "(install pyyaml to load YAML specs)"
            )
        try:
            data = _yaml.safe_load(text)
        except _yaml.YAMLError as error:
            raise SpecError(f"{source}: invalid YAML: {error}") from error
    try:
        return ScenarioSpec.from_dict(data)
    except SpecError as error:
        # str(error) already carries the dotted field path; prefix the
        # source without re-prepending the path.
        wrapped = SpecError(f"{source}: {error}")
        wrapped.path = error.path
        raise wrapped from error


def load_spec_file(path: str | Path) -> ScenarioSpec:
    """Load and validate one spec file (format chosen by extension)."""
    path = Path(path)
    suffix = path.suffix.lower()
    format = {".json": "json", ".yaml": "yaml", ".yml": "yaml"}.get(suffix)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise SpecError(f"cannot read spec file {path}: {error}") from error
    return parse_spec_text(text, format=format, source=str(path))


def resolve_spec(ref) -> ScenarioSpec:
    """Coerce any scenario reference into a validated spec.

    Accepts a spec, a plain dict, a ``file:`` ref or registry name, or
    a built scenario object (serialised via ``from_scenario``).
    """
    from repro.service.scenarios import Scenario, get_scenario

    if isinstance(ref, ScenarioSpec):
        return ScenarioSpec.from_dict(ref.to_dict())
    if isinstance(ref, dict):
        return ScenarioSpec.from_dict(ref)
    if isinstance(ref, str):
        if ref.startswith(FILE_PREFIX):
            return load_spec_file(ref[len(FILE_PREFIX):])
        return ScenarioSpec.from_scenario(get_scenario(ref))
    if isinstance(ref, Scenario):
        return ScenarioSpec.from_scenario(ref)
    raise SpecError(
        f"cannot interpret {type(ref).__name__} as a scenario reference"
    )


def resolve_scenario(ref):
    """Coerce any scenario reference into a runnable scenario object.

    Everything passes through one ``from_dict(to_dict(...))`` round
    trip — *except* instances of ``Scenario`` subclasses the spec
    format does not model (user-defined classes with extra behaviour),
    which pass through unchanged rather than being lossily flattened.
    """
    from repro.service.scenarios import Scenario

    if isinstance(ref, Scenario) and type(ref) is not Scenario:
        return ref
    spec = resolve_spec(ref)
    if isinstance(ref, (Scenario, dict, ScenarioSpec)):
        return spec.to_scenario()
    # String refs re-validate through the round trip too.
    return ScenarioSpec.from_dict(spec.to_dict()).to_scenario()
