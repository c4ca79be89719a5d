"""The package declares what it imports."""
import ast
import dataclasses
import os
import re
import sys

import pytest

import ppc_uq
from ppc_uq import cli, ppc

tomllib = pytest.importorskip("tomllib")   # Python 3.11+

PACKAGE = os.path.dirname(os.path.abspath(cli.__file__))
SRC = os.path.dirname(PACKAGE)
PYPROJECT = os.path.join(os.path.dirname(SRC), "pyproject.toml")
TESTS = os.path.dirname(os.path.abspath(__file__))


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


def declared(*groups):
    """The distribution names of pyproject's `dependencies`, then of each named
    optional-dependencies group."""
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = project["dependencies"] + [
        req for group in groups for req in project["optional-dependencies"][group]]
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower() for req in requirements}


def test_every_third_party_import_is_a_declared_dependency():
    third_party = (imported_top_level_modules(SRC) - set(sys.stdlib_module_names)
                   - {"ppc_uq"})
    assert "numpy" in third_party           # the scan sees the imports
    assert third_party <= declared()


def test_every_test_import_is_a_declared_test_dependency():
    third_party = (imported_top_level_modules(TESTS) - set(sys.stdlib_module_names)
                   - {"ppc_uq", "conftest"})
    assert {"mpmath", "scipy"} <= third_party   # the scan sees the imports
    assert third_party <= declared("test")


def test_package_and_project_versions_agree():
    with open(PYPROJECT, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == ppc_uq.__version__


def parsed_modules():
    """{module name: AST} for every module of the package."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                out[name.removesuffix(".py")] = ast.parse(fh.read())
    return out


def test_every_private_module_name_is_used():
    """A module-level `_name` that nothing in the package reads is dead code."""
    modules = parsed_modules()
    defined = set()
    for tree in modules.values():
        for node in tree.body:
            targets = ([node] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       else node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                name = getattr(target, "name", getattr(target, "id", None))
                if name and name.startswith("_") and not name.startswith("__"):
                    defined.add(name)
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    assert len(defined) > 30                # the scan sees the definitions
    assert sorted(defined - read) == []


def test_engine_does_not_import_the_file_formats():
    """`ppc` reads numbers through `predictive`, not through `io`."""
    imports = [node for node in ast.walk(parsed_modules()["ppc"])
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports                          # the scan sees the imports
    assert all(node.module != "io" and "io" not in {a.name for a in node.names}
               for node in imports)


def test_no_cache_outside_the_check_and_no_thread_state():
    """A check's context is frozen data with the four fields a custom statistic may read
    (preds, weights, predicted, confidence), no derived array; the bracket's plan is built
    once per check by `_pit_reader`, which the statistic's reader calls, and its arrays
    live in one pass of the bracket: only `ppc` imports `threading`, whose block runner
    starts `threading.Thread`s and takes nothing else from it (no lock, no thread-local
    state), and the one `functools` cache is `_cdf_table`'s, a constant of the grid."""
    cached, threading, taken = [], [], set()
    for module, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                threading += [f"{module}: {a.name}" for a in node.names
                              if a.name.split(".")[0] == "threading"]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                threading += ([f"{module}: from {node.module}"]
                              if node.module.split(".")[0] == "threading" else [])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "threading"):
                taken.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = getattr(target, "attr", getattr(target, "id", None))
                    if name in {"cache", "lru_cache", "cached_property"}:
                        cached.append(f"{module}.{node.name}")
    assert threading == ["ppc: threading"]
    assert taken == {"Thread"}
    assert cached == ["predictive._cdf_table"]
    assert ppc.PredictiveContext.__dataclass_params__.frozen
    assert [f.name for f in dataclasses.fields(ppc.PredictiveContext)] == [
        "preds", "weights", "predicted", "confidence"]


def float_casts(node, scope=()):
    """The qualified name of the function around each `np.asarray(..., dtype=float)`
    or `np.array(..., dtype=float)` under `node` (dtype given by keyword or place)."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr in {"asarray", "array"}
                and isinstance(child.func.value, ast.Name) and child.func.value.id == "np"):
            dtype = next((k.value for k in child.keywords if k.arg == "dtype"),
                         child.args[1] if len(child.args) > 1 else None)
            if dtype is not None and ast.unparse(dtype) in {
                    "float", "np.float64", "np.double", "'float'", "'float64'"}:
                yield ".".join(scope)
        inner = (scope + (child.name,) if isinstance(
            child, (ast.FunctionDef, ast.ClassDef)) else scope)
        yield from float_casts(child, inner)


def test_an_array_the_library_is_handed_is_read_by_real_array():
    """`predictive.real_array` is the one reader of arrays from outside: a silent cast
    to floats, which reads a bool or a numeric string as a number, converts only the
    package's own values, in these four functions."""
    casts = [f"{module}.{name}" for module, tree in parsed_modules().items()
             for name in float_casts(tree)]
    assert sorted(casts) == ["predictive.PosteriorWeights.as_array", "predictive._ndtr",
                             "predictive._pit_reader", "recalibrate.TemperatureVector.as_array"]
