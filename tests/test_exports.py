import importlib
import pkgutil

import pytest

import lindosc

MODULES = ["lindosc"] + [f"lindosc.{m.name}"
                         for m in pkgutil.iter_modules(lindosc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks `from ... import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
