"""Every exported name resolves: ``ergokit.__all__`` and each submodule's
``__all__`` name attributes that exist on their module, once each, so a
deleted function cannot linger as a stale export."""

import importlib
import pkgutil

import pytest

import ergokit

MODULES = ["ergokit"] + [f"ergokit.{info.name}" for info in pkgutil.iter_modules(ergokit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []
