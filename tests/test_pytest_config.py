import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
"""


def test_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    # filterwarnings = error must not turn a warning raised while Hypothesis
    # reports a failure into an INTERNALERROR (exit 3) that hides the
    # falsifying example and stops the run
    module = tmp_path / "test_property.py"
    module.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(module)],
        capture_output=True, text=True, cwd=tmp_path)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
