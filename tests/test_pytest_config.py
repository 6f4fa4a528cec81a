"""The suite's pytest configuration: a failing hypothesis test fails
alone and does not stop the run."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"


def test_a_failing_given_test_does_not_abort_the_run(tmp_path):
    """With warnings turned into errors, the hypothesis plugin's report
    of a failing ``@given`` test once raised a DeprecationWarning, and
    pytest stopped with INTERNALERROR (exit 3) before the next test."""
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
        "\n"
        "def test_second():\n"
        "    pass\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
