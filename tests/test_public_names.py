"""Every exported name resolves: ``ergokit.__all__`` and each submodule's
``__all__`` name attributes that exist on their module, once each, so a
deleted function cannot linger as a stale export; nor can README's list of
key operations name one."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ergokit

MODULES = ["ergokit"] + [f"ergokit.{info.name}" for info in pkgutil.iter_modules(ergokit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []


def key_operations():
    """(identifiers, module) per bullet of README's "Key operations" list: each backticked name, or the name of a
    backticked call, and the ``src/ergokit/<module>.py`` that the bullet names, if any."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Key operations:", 1)[1].split("\n## ", 1)[0]
    for bullet in re.split(r"\n- ", section)[1:]:
        names = re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", bullet)
        module = re.search(r"`src/ergokit/(\w+)\.py`", bullet)
        yield names, module and importlib.import_module(f"ergokit.{module.group(1)}")


def test_readme_key_operations_resolve():
    bullets = list(key_operations())
    assert sum(len(names) for names, _ in bullets) >= 10  # the list was found and parsed
    missing = [name for names, module in bullets for name in names
               if not hasattr(ergokit, name) and not (module and hasattr(module, name))]
    assert missing == []
