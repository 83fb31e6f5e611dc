"""Every name a coforget module lists in __all__ exists.

Tools that walk __all__, such as a star import or a tracer that wraps each
public callable, fail on a stale entry that a deletion left behind.
"""

import importlib
import pkgutil

import pytest

import coforget

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(coforget.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"coforget.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
