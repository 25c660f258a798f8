import importlib
import pkgutil

import pytest

import savae

MODULES = ["savae"] + [f"savae.{info.name}" for info in pkgutil.iter_modules(savae.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
