"""The test harness itself: a failing check reports itself, and the mutation run counts it."""

import os
import subprocess
import sys
import textwrap

import pytest

import mutants

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_failing_property_test_reports_its_falsifying_example(tmp_path):
    """Under the project's warning filters, a failing @given test fails (exit 1) with its
    example, instead of ending the session in an internal error (exit 3)."""
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5
    """))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
                           "test_fails.py"], cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout


@pytest.mark.parametrize("code, expected", [
    (0, "survived"), (1, "killed"), (2, "errored (exit 2)"), (3, "errored (exit 3)"),
    (5, "errored (exit 5)")])
def test_mutant_is_killed_only_by_a_failing_test(code, expected):
    assert mutants.outcome(code) == expected
