"""The repository's pytest configuration keeps a failing property test's
report: `pyproject.toml` turns DeprecationWarnings into errors, except the
one that hypothesis's example patcher raises through libcst importing
mypy_extensions' TypedDict, which would end the run in an INTERNALERROR
and lose the falsifying example."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_property_test_reports_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


def test_other_deprecation_warnings_stay_errors(tmp_path):
    (tmp_path / "test_warns.py").write_text(
        "import warnings\n\n\ndef test_warns():\n"
        "    warnings.warn('deprecated', DeprecationWarning)\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_warns.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1 and "DeprecationWarning: deprecated" in run.stdout
