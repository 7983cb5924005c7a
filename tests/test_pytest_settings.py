"""The test run's own settings: a failing property test is reported as a
failure, and the tests after it still run."""
import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).parent.parent / "pyproject.toml"

FAIL_THEN_PASS = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    # hypothesis reports a failing example through its patching helpers,
    # whose imports must not turn a warning into an internal error
    (tmp_path / "test_two.py").write_text(FAIL_THEN_PASS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1], proc.stdout
