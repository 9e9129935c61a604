"""The project's pytest settings report a failing test as a failure: a falsified
Hypothesis test run under them ends with exit 1, not an INTERNALERROR."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_falsified(n):
    assert n < 0
'''


def test_a_falsified_hypothesis_test_exits_1(tmp_path):
    (tmp_path / "test_falsified.py").write_text(FAILING)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", PYPROJECT, str(tmp_path / "test_falsified.py")],
                          cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 1, done.stdout[-2000:]
    assert "INTERNALERROR" not in done.stdout
