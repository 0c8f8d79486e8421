"""The result-cache fingerprint covers the package minus an exclude list.

A synthetic tree mirrors the real package's layout — every subpackage
and every top-level module — so the test notices when a new subpackage
appears, and checks that an edit anywhere outside the exclude list
changes the digest while an edit inside it does not.
"""

from pathlib import Path

import pytest

import repro
from repro.perf import FINGERPRINT_EXCLUDE, code_fingerprint

PACKAGE = Path(repro.__file__).resolve().parent
SUBPACKAGES = sorted(
    p.name for p in PACKAGE.iterdir() if (p / "__init__.py").is_file()
)
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


@pytest.fixture()
def tree(tmp_path):
    """A package-shaped tree: one module per subpackage, plus the
    top-level modules."""
    for name in SUBPACKAGES:
        (tmp_path / name).mkdir()
        (tmp_path / name / "__init__.py").write_text("")
        (tmp_path / name / "module.py").write_text(f"NAME = {name!r}\n")
    for name in MODULES:
        (tmp_path / name).write_text(f"NAME = {name!r}\n")
    return tmp_path


def _edited(tree, rel: str) -> str:
    with (tree / rel).open("a") as handle:
        handle.write("# edited\n")
    return code_fingerprint(tree)


@pytest.mark.parametrize(
    "rel",
    [f"{name}/module.py" for name in SUBPACKAGES if name not in FINGERPRINT_EXCLUDE]
    + [name for name in MODULES if name not in FINGERPRINT_EXCLUDE],
)
def test_an_edit_outside_the_exclude_list_changes_the_digest(tree, rel):
    before = code_fingerprint(tree)
    assert _edited(tree, rel) != before


@pytest.mark.parametrize("rel", ["perf/module.py", "__main__.py"])
def test_an_edit_inside_the_exclude_list_keeps_the_digest(tree, rel):
    before = code_fingerprint(tree)
    assert _edited(tree, rel) == before


def test_a_new_module_changes_the_digest(tree):
    before = code_fingerprint(tree)
    (tree / "scenario" / "extra.py").write_text("X = 1\n")
    assert code_fingerprint(tree) != before


def test_the_layout_covers_the_modules_that_shape_results():
    for name in ("cluster", "control", "obs", "scenario", "service", "sim"):
        assert name in SUBPACKAGES
    assert "perf" in SUBPACKAGES and "__main__.py" in MODULES
