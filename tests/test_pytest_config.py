"""The suite's pytest settings let a failing property test fail alone."""
import os
import subprocess
import sys

import ppc_uq

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(ppc_uq.__file__)))), "pyproject.toml")

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    # hypothesis writes the patch of a failing example through libcst, whose
    # import warns; under `filterwarnings = error` alone that warning ended
    # the session with INTERNALERROR and lost the later tests
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", PYPROJECT, "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr
