"""The mutant catalogue (tests/mutants.json, run by tests/run_mutants.py) names
code that exists: each entry's old text occurs exactly once in its module, so a
refactor that moves the code must move the entry. No mutant is run here."""
import importlib.util
import os
import re

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "run_mutants", os.path.join(os.path.dirname(os.path.abspath(__file__)), "run_mutants.py"))
run_mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_mutants)
ROOT = run_mutants.ROOT
ENTRIES = run_mutants.load()


def test_ids_are_unique_and_entries_complete():
    assert len({e["id"] for e in ENTRIES}) == len(ENTRIES)
    for entry in ENTRIES:
        assert set(entry) == {"id", "module", "old", "new", "node", "why"}, entry["id"]
        assert entry["old"] != entry["new"] and entry["why"], entry["id"]


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["id"] for e in ENTRIES])
def test_old_text_occurs_once_and_the_node_exists(entry):
    with open(run_mutants.module_path(os.path.join(ROOT, "src"), entry),
              encoding="utf-8") as fh:
        assert fh.read().count(entry["old"]) == 1
    path, *names = entry["node"].split("::")
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        source = fh.read()
    for name in names:
        name = name.split("[")[0]
        assert re.search(rf"^\s*(def|class) {name}\b", source, re.M), entry["node"]
