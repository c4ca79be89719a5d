"""The package declares what it imports."""
import ast
import os
import re
import sys

import pytest

import ppc_uq
from ppc_uq import cli

tomllib = pytest.importorskip("tomllib")   # Python 3.11+

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
PYPROJECT = os.path.join(os.path.dirname(SRC), "pyproject.toml")


def imported_top_level_modules(root):
    """Top-level names of every absolute import in the .py files under `root`."""
    names = set()
    for directory, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names.update(a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower()
                for req in project["dependencies"]}
    third_party = (imported_top_level_modules(SRC) - set(sys.stdlib_module_names)
                   - {"ppc_uq"})
    assert "numpy" in third_party           # the scan sees the imports
    assert third_party <= declared


def test_package_and_project_versions_agree():
    with open(PYPROJECT, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == ppc_uq.__version__
