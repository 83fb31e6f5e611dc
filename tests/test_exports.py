"""Every name a coforget module lists in __all__ exists and has one home.

Tools that walk __all__, such as a star import or a tracer that wraps each
public callable, fail on a stale entry that a deletion left behind. A class
or function is listed only by the module that defines it, so each public
name has one import path to document and to keep.
"""

import importlib
import inspect
import pkgutil

import pytest

import coforget

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(coforget.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"coforget.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_class_and_function_is_defined_where_it_is_listed(name):
    module = importlib.import_module(f"coforget.{name}")
    exported = [getattr(module, attr) for attr in getattr(module, "__all__", ())]
    homes = {
        obj.__qualname__: obj.__module__
        for obj in exported
        if inspect.isclass(obj) or inspect.isfunction(obj)
    }
    assert {qualname: home for qualname, home in homes.items() if home != module.__name__} == {}
