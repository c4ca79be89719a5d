"""Smoke runs of the experiment scripts with tiny arguments."""
import os
import subprocess
import sys

from ppc_uq import ppc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(ppc.__file__)))
    # warnings are errors in the child too, as pytest makes them in process
    result = subprocess.run([sys.executable, "-W", "error",
                             os.path.join(ROOT, "scripts", name)]
                            + list(args), env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_location_counterexample():
    out = run_script("location_counterexample.py",
                     "--n", "200", "--models", "20", "--replicates", "50")
    lines = out.splitlines()
    assert any(ln.startswith("point-estimate") and ln.endswith("-> FAIL")
               for ln in lines)
    assert any(ln.startswith("bayesian") and ln.endswith("-> PASS") for ln in lines)


def test_quadratic_ppc_experiment():
    out = run_script("quadratic_ppc_experiment.py",
                     "--seeds", "2", "--n-ood", "200", "--replicates", "50")
    assert "independent rejects & bayesian passes: 2/2" in out.splitlines()


def test_bad_model_trusted():
    out = run_script("bad_model_trusted.py",
                     "--seeds", "2", "--n", "500", "--replicates", "50")
    lines = out.splitlines()
    assert "independent passes: 2/2" in lines
    assert "bayesian rejects: 2/2" in lines
