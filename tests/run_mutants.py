"""Run the mutant catalogue, tests/mutants.json: each entry, applied alone to a
copy of src/, must make its test node fail.

    python tests/run_mutants.py [ID ...]

Run from anywhere; with no IDs every entry runs. For each entry the runner copies
src/ to a temporary directory, replaces the entry's `old` text, which must occur
exactly once, in `src/ppc_uq/<module>.py` with `new`, and runs
`python -m pytest -x -q -p no:cacheprovider NODE` in a subprocess, with
PYTHONPATH set to the copy. The subprocess runs in the temporary directory, so
each entry starts from an empty Hypothesis example database: examples saved
by earlier runs in the checkout do not decide whether a property test draws
the case that catches its mutant. An entry is CAUGHT when pytest
reports a failure (exit status 1), SURVIVED when the node passes, and ERROR
otherwise (say, a node that no longer exists). The exit status is 0 only if every
entry that ran was caught. Standard library only; not part of the test suite.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CATALOGUE = os.path.join(ROOT, "tests", "mutants.json")


def load() -> list:
    with open(CATALOGUE, encoding="utf-8") as fh:
        return json.load(fh)


def module_path(src: str, entry: dict) -> str:
    return os.path.join(src, "ppc_uq", entry["module"] + ".py")


def run(entry: dict) -> tuple:
    """(outcome, seconds, pytest's last output line) of one entry."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = module_path(src, entry)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(entry["old"]) != 1:
            return "ERROR", 0.0, f"old text occurs {text.count(entry['old'])} times"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(entry["old"], entry["new"]))
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--rootdir", ROOT, os.path.join(ROOT, entry["node"])], cwd=tmp,
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        seconds = time.perf_counter() - start
    lines = result.stdout.strip().splitlines()
    outcome = {0: "SURVIVED", 1: "CAUGHT"}.get(result.returncode, "ERROR")
    return outcome, seconds, lines[-1] if lines else result.stderr.strip()[-200:]


def main(argv) -> int:
    entries = load()
    chosen = [e for e in entries if not argv or e["id"] in argv]
    unknown = set(argv) - {e["id"] for e in entries}
    if unknown:
        print(f"unknown ids: {sorted(unknown)}", file=sys.stderr)
        return 2
    outcomes = []
    for entry in chosen:
        outcome, seconds, last = run(entry)
        outcomes.append(outcome)
        print(f"{entry['id']:>4} {outcome:<8} {seconds:6.1f} s  {entry['node']}  | {last}",
              flush=True)
    print(f"{outcomes.count('CAUGHT')} of {len(outcomes)} caught")
    return 0 if outcomes.count("CAUGHT") == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
