"""Tests of the benchmark itself: input generation and the output checker."""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen_inputs  # noqa: E402
import verify  # noqa: E402



@pytest.fixture
def small(monkeypatch):
    """Workloads of 200 rows, so a test runs the CLI in well under a second."""
    monkeypatch.setattr(gen_inputs, "REGRESSION_ROWS", 200)
    monkeypatch.setattr(gen_inputs, "CLASS_ROWS", 200)


@pytest.mark.parametrize("name", gen_inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(small, name):
    first = gen_inputs.generate(name, 5)
    again = gen_inputs.generate(name, 5)
    assert first.files == again.files
    assert first.digests() == again.digests()
    assert gen_inputs.generate(name, 6).files != first.files


def test_inputs_match_the_recorded_digests():
    with open(os.path.join(HERE, "inputs.lock.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["inputs"]["regression-ood"]
    assert gen_inputs.generate("regression-ood", 0).digests() == recorded["0"]


def test_written_floats_round_trip(small):
    wl = gen_inputs.generate("regression-ood", 2)
    rows = [json.loads(line)["preds"]
            for line in wl.files["predictions"].splitlines()[1:]]
    means = np.array([[e["mean"] for e in row] for row in rows])
    np.testing.assert_array_equal(means, wl.arrays["means"])


def _run_check(tmp_path, name):
    """Runs the real CLI in-process on a small workload; returns what the
    benchmark's checker sees."""
    from ppc_uq import cli

    wl = gen_inputs.generate(name, 3)
    inputs = wl.write(str(tmp_path))
    inv = verify.invocations(wl, inputs, str(tmp_path))[0]
    code = cli.main(inv.args)
    with open(inv.outputs[0], "rb") as fh:
        outputs = {inv.outputs[0]: fh.read()}
    verdict = "PASS" if code == 0 else "FAIL"
    return wl, inv, verify.Result(code, verdict + " statistic=...", outputs)


@pytest.mark.parametrize("name", ["regression-ood", "classification-large"])
def test_checker_accepts_the_real_report(small, tmp_path, name):
    wl, inv, res = _run_check(tmp_path, name)
    assert verify.check_result(inv, res, wl) == []


def test_checker_flags_a_wrong_verdict(small, tmp_path):
    wl, inv, res = _run_check(tmp_path, "classification-large")
    assert res.returncode == verify.EXIT_FAIL
    wrong = verify.Result(verify.EXIT_PASS, "PASS" + res.stdout[4:], res.outputs)
    problems = verify.check_result(inv, wrong, wl)
    assert any("exit code" in p for p in problems)
    assert any("stdout verdict" in p for p in problems)


@pytest.mark.parametrize("field,value,message", [
    ("observed", 0.123, "observed"),
    ("passed", True, "passed="),
    ("p_value", 0.5, "p_value"),
    ("inputs", {"predictions": "0" * 64, "labels": "0" * 64}, "input digests"),
])
def test_checker_flags_a_tampered_report(small, tmp_path, field, value, message):
    wl, inv, res = _run_check(tmp_path, "classification-large")
    report = json.loads(res.outputs[inv.outputs[0]])
    report[field] = value
    tampered = verify.Result(res.returncode, res.stdout,
                             {inv.outputs[0]: json.dumps(report).encode()})
    assert any(message in p for p in verify.check_result(inv, tampered, wl))


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regression-ood",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_report_history_is_kept_per_source_tree(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "WORK", str(tmp_path))
    wl = gen_inputs.Workload("regression-ood", 0, {})

    def run_with(digest, source):
        monkeypatch.setattr(run, "source_digest", lambda: source)
        r = run.Run(wl, [])
        r.baseline = {"independent": digest}
        run.check_history(wl, r)
        return r.failed

    assert run_with("a" * 64, "parent") == 0
    assert run_with("b" * 64, "parent") == 1      # same code, other bytes
    assert run_with("b" * 64, "change") == 0      # other code may differ
    assert run_with("a" * 64, "parent") == 0


def test_scaled_divides_by_the_flanking_reference_starts():
    import run

    r = run.Run(gen_inputs.Workload("regression-ood", 0, {}), [])
    r.refs = [0.4, 0.6, 1.0]
    assert r.scaled([2.0, 1.6]) == pytest.approx(
        [2.0 * run.REF_NOMINAL_S / 0.5, 1.6 * run.REF_NOMINAL_S / 0.8])
