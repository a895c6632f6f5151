"""Package hygiene: exports resolve, no import goes unused, one material type."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import stretchlab
from stretchlab.materials import MaterialModel

MODULES = ["stretchlab"] + sorted(
    info.name for info in pkgutil.walk_packages(stretchlab.__path__, "stretchlab.")
)


def _source(name):
    return Path(importlib.import_module(name).__file__).read_text()


def _imported_names(tree):
    """The names bound by the module's import statements, with their lines."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing


# the top-level package has no __all__: it imports to re-export
@pytest.mark.parametrize("name", MODULES[1:])
def test_no_unused_imports(name):
    module = importlib.import_module(name)
    tree = ast.parse(_source(name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(module, "__all__", ()))
    unused = [(bound, line) for bound, line in _imported_names(tree) if bound not in used]
    assert not unused


def test_material_model_has_no_subclasses():
    # filtering, combination and composition return plain MaterialModel lists
    for name in MODULES:
        importlib.import_module(name)
    assert MaterialModel.__subclasses__() == []
