"""Fixtures shared by the test modules."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

# perfbench is not a package on the import path, so its output checker is
# loaded by file; dataclasses resolve their module through sys.modules.
_CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


@pytest.fixture(scope="session")
def check_outputs():
    """perfbench's ``check_outputs``: the problems it finds in one run directory's outputs."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS)
    checks = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(checks)
    return checks.check_outputs
