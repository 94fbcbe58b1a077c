"""The repository's pytest configuration, run on a generated test file."""

import os
import subprocess
import sys

CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")


def test_a_failing_hypothesis_test_lets_the_next_test_run(tmp_path):
    # Reporting a failing example imports libcst, whose import warns of a
    # deprecation; as an INTERNALERROR it would end the test run there.
    path = tmp_path / "test_generated.py"
    path.write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
        "\n"
        "\n"
        "def test_passes():\n"
        "    pass\n"
    )
    pytest = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", CONFIG, "--rootdir", str(tmp_path)]
    result = subprocess.run([*pytest, str(path)], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
