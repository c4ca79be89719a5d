"""The benchmark's traced replay (perfbench/traced.py) reaches into the
package by attribute name; a renamed function would break it only there."""
import ast
import importlib.util
import os

from ppc_uq import cli, io, ppc, recalibrate
from ppc_uq import statistics as st

TRACED_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "traced.py")


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_callable():
    modules = {"io": io, "ppc": ppc, "statistics": st, "recalibrate": recalibrate}
    for layer, attrs in load_traced().TRACED.items():
        for attr in attrs:
            assert callable(getattr(modules[layer], attr, None)), f"{layer}.{attr}"


def test_direct_calls_are_callable():
    # every `ppc.x`, `st.x` and `cli.x` the replay and its engine timings use
    modules = {"cli": cli, "ppc": ppc, "st": st}
    with open(TRACED_PATH, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {("ppc", "replicate_rng"), ("ppc", "replicate_labels"),
            ("ppc", "build_context")} <= used
    for name, attr in sorted(used):
        assert callable(getattr(modules[name], attr, None)), f"{name}.{attr}"
