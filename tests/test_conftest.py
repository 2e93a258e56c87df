"""The session set-up in ``conftest.py`` keeps a failing Hypothesis test
reportable under the suite's warning flags, and only that."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parent / "conftest.py"

SESSION = '''
from hypothesis import given, strategies as st

import helper


@given(st.integers())
def test_falsified(x):
    assert x < 5


def test_passes():
    assert True


def test_helper_deprecation_still_fails():
    helper.old()
'''

HELPER = '''
import warnings


def old():
    warnings.warn("old() is deprecated", DeprecationWarning)
'''


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None, reason="needs libcst")
def test_a_falsified_example_is_reported_under_the_warning_flags(tmp_path):
    # without the set-up the failing @given test ends the run in an
    # INTERNALERROR and the tests after it never run; a DeprecationWarning
    # from code under test still fails its test
    shutil.copy(CONFTEST, tmp_path / "conftest.py")
    (tmp_path / "test_session.py").write_text(SESSION)
    (tmp_path / "helper.py").write_text(HELPER)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-W", "error::DeprecationWarning", "-W", "error::FutureWarning", "test_session.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example: test_falsified(" in out and "x=5" in out, out
    assert "DeprecationWarning: old() is deprecated" in out, out
    assert out.rstrip().splitlines()[-1].startswith("2 failed, 1 passed"), out
