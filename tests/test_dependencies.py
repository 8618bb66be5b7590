"""numpy is the only runtime dependency: every import in the package names
the standard library, numpy or the package itself, and the package
metadata declares numpy alone."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "astroseq"


def imported_roots(path: Path) -> set[str]:
    """The top-level names a module imports; a relative import is the
    package's own."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("astroseq" if node.level else node.module.split(".")[0])
    return roots


def test_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    allowed = set(sys.stdlib_module_names) | {"numpy", "astroseq"}
    foreign = {
        path.name: sorted(imported_roots(path) - allowed) for path in modules
    }
    assert {name: roots for name, roots in foreign.items() if roots} == {}


def test_imported_roots_sees_every_import_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import os.path, scipy as sp\nfrom numpy.linalg import norm\n"
        "from . import model\nfrom .errors import ShapeError\n"
        "def f():\n    import torch\n"
    )
    assert imported_roots(path) == {"os", "scipy", "numpy", "astroseq", "torch"}


def test_metadata_declares_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
