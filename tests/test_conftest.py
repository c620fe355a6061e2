"""tests/conftest.py keeps a failing @given test from ending the session."""

import shutil
import subprocess
import sys
from pathlib import Path

CASES = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_given_test_leaves_the_session_running(tmp_path):
    # the tier-1 warning filter and conftest, in a project of their own
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    (tmp_path / "test_cases.py").write_text(CASES)
    # plain asserts: the child would otherwise rewrite hypothesis's modules
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--assert=plain"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), \
        run.stdout + run.stderr
