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


def test_cli_is_a_thin_shell():
    # it parses arguments, calls one library function per command and maps
    # errors to exit codes; the numerical code lives in the library
    tree = ast.parse(_source("stretchlab.cli"))
    shell = {"_emit", "_load_spec", "_add_spec_flags", "build_parser", "main"}
    defined = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert [name for name in defined if name not in shell and not name.startswith("cmd_")] == []
    numpy_uses = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np"
    }
    assert numpy_uses == {"linspace"}


def test_cli_binds_the_library_verify_table():
    # one function object, so the benchmark traces it as the layer cli.verify_table
    cli = importlib.import_module("stretchlab.cli")
    assert cli.verify_table is importlib.import_module("stretchlab.lame").verify_table
