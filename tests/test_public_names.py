"""Every exported name resolves: ``ergokit.__all__`` and each submodule's
``__all__`` name attributes that exist on their module, once each, so a
deleted function cannot linger as a stale export; nor can README's list of
key operations name one. Every name a module imports is read in it or
exported, so a deletion cannot leave an orphaned import behind; every
module-level constant is read by the program, so none outlives its last reader; and every
error class is read in another module, so none is left that nothing raises. Only the types that callers construct
define ``__post_init__``, so a result type cannot start checking its computed values again. Operators made from a
basis have one builder, so no module takes the Hermitian part of one again, and only states.py builds an unchecked
DensityMatrix. A sweep family is data, so its name is written once, as its key in ``instances.FAMILIES``. Every name
the package exports is documented in README."""

import ast
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


def test_no_package_attribute_shadows_a_submodule():
    # a re-exported function named after its module would hide the module: `import ergokit.m as x` binds the function
    submodules = [importlib.import_module(name) for name in MODULES[1:] if name != "ergokit.__main__"]
    assert [m.__name__ for m in submodules if getattr(ergokit, m.__name__.rsplit(".", 1)[1]) is not m] == []


def syntax_tree(name):
    return ast.parse(Path(importlib.import_module(name).__file__).read_text(encoding="utf-8"))


def names_read(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    tree = syntax_tree(name)
    imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    exported = getattr(importlib.import_module(name), "__all__", [])
    assert sorted(imported - names_read(tree) - set(exported)) == []


def module_constants(tree) -> set:
    """Non-dunder names that a module's top-level assignments bind."""
    return {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in ast.walk(node) if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
            and not target.id.startswith("__")}


def test_every_module_constant_is_read_by_the_program():
    # a tuning constant or table left behind by the code that read it; tests and README do not count as readers
    trees = [syntax_tree(name) for name in MODULES]
    assigned = set().union(*map(module_constants, trees))
    read = set().union(*map(names_read, trees))
    assert len(assigned) > 10  # the assignments were found
    assert sorted(assigned - read) == []


def test_every_error_class_is_named_in_the_program():
    declared = {node.name for node in syntax_tree("ergokit.errors").body if isinstance(node, ast.ClassDef)}
    read = set().union(*(names_read(syntax_tree(name)) for name in MODULES if name != "ergokit.errors"))
    assert len(declared) > 1  # the classes were found
    assert sorted(declared - {"ErgokitError"} - read) == []


# The types that callers and instance files construct. A type the package builds for itself from validated inputs,
# such as the WorkReport that report returns, is not checked again, so it gets no __post_init__.
VALIDATED_ON_CONSTRUCTION = {"DensityMatrix", "Hamiltonian", "StochasticMatrix", "Povm", "AuditConfig"}


def test_only_types_built_from_outside_validate_themselves():
    checked = {node.name for name in MODULES for node in ast.walk(syntax_tree(name)) if isinstance(node, ast.ClassDef)
               and any(isinstance(f, ast.FunctionDef) and f.name == "__post_init__" for f in node.body)}
    assert checked  # the classes were found
    assert sorted(checked - VALIDATED_ON_CONSTRUCTION) == []


def calls_of(tree, func: str) -> list:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and getattr(node.func, "id", None) == func]


@pytest.mark.parametrize("name", MODULES)
def test_operators_from_a_basis_have_one_builder(name):
    # operator_in_basis already returns the Hermitian part, and every derived state comes from DensityMatrix._in_basis
    tree = syntax_tree(name)
    rewrapped = [call.lineno for call in calls_of(tree, "hermitian_part")
                 if any(calls_of(arg, "operator_in_basis") for arg in call.args)]
    assert rewrapped == []
    if name != "ergokit.states":
        assert [call.lineno for call in calls_of(tree, "unchecked")
                if call.args and getattr(call.args[0], "id", None) == "DensityMatrix"] == []


def test_each_family_name_is_written_once_as_its_key():
    # a family is its two endpoint matrices, so no code branches on its name
    from ergokit.instances import FAMILIES

    literals = [node.value for name in MODULES for node in ast.walk(syntax_tree(name))
                if isinstance(node, ast.Constant)]
    table = next(node.value for node in syntax_tree("ergokit.instances").body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "FAMILIES")
    assert {name: literals.count(name) for name in FAMILIES} == {name: 1 for name in FAMILIES}
    assert [key.value for key in table.keys] == list(FAMILIES)


def test_every_package_export_is_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert [name for name in ergokit.__all__ if not re.search(rf"\b{name}\b", readme)] == []


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
