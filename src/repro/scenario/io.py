"""Loading scenarios: ``file:`` refs, JSON/YAML parsing, resolution.

:func:`resolve_scenario` is the single coercion point every serving
entry surface shares (the facade, the loadgens, the CLI): it accepts a
registry name, a ``file:scenario.yaml`` reference, a plain
``repro.scenario/1`` dict, or a built
:class:`~repro.scenario.spec.Scenario`, and returns the scenario. No
path needs a second pass: every scenario, however it was made, was
checked when it was constructed.

YAML parsing is gated on :mod:`yaml` being importable; JSON always
works. Malformed documents raise :class:`~repro.errors.SpecError`,
which the CLI maps to the documented usage exit code 2.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import SpecError
from repro.scenario.spec import Scenario

__all__ = [
    "FILE_PREFIX",
    "parse_spec_text",
    "load_spec_file",
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
) -> Scenario:
    """Parse one JSON or YAML ``repro.scenario/1`` document.

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
        return Scenario.from_dict(data)
    except SpecError as error:
        # str(error) already carries the dotted field path; prefix the
        # source without re-prepending the path.
        wrapped = SpecError(f"{source}: {error}")
        wrapped.path = error.path
        raise wrapped from error


def load_spec_file(path: str | Path) -> Scenario:
    """Load one scenario file (format chosen by extension)."""
    path = Path(path)
    suffix = path.suffix.lower()
    format = {".json": "json", ".yaml": "yaml", ".yml": "yaml"}.get(suffix)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise SpecError(f"cannot read spec file {path}: {error}") from error
    return parse_spec_text(text, format=format, source=str(path))


def resolve_scenario(ref) -> Scenario:
    """Coerce any scenario reference into a scenario.

    Accepts a built scenario (returned as is), a plain dict, or a
    string: a ``file:`` reference or a registry name.
    """
    if isinstance(ref, Scenario):
        return ref
    if isinstance(ref, dict):
        return Scenario.from_dict(ref)
    if isinstance(ref, str):
        if ref.startswith(FILE_PREFIX):
            return load_spec_file(ref[len(FILE_PREFIX):])
        # Not a top-level import: the registry module imports this
        # package, so that import would be circular.
        from repro.service.scenarios import get_scenario

        return get_scenario(ref)
    raise SpecError(
        f"cannot interpret {type(ref).__name__} as a scenario reference"
    )
