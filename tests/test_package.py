"""The package namespace is exactly the union of its modules' ``__all__`` lists."""

import ast
import importlib
import inspect
import types

import pytest

import jurylearn

MODULES = ("correlation", "csvio", "dynamics", "errors", "figures", "profiles", "tradeoff", "votemath")


def _module(name):
    return importlib.import_module(f"jurylearn.{name}")


def _top_level_names(module) -> set[str]:
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_package_exports_exactly_the_union_of_all_lists():
    public = {
        name
        for name, value in vars(jurylearn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    union = {name for m in MODULES for name in _module(m).__all__}
    assert public == union


def test_no_name_is_listed_by_two_modules():
    listed = [name for m in MODULES for name in _module(m).__all__]
    assert len(listed) == len(set(listed))


@pytest.mark.parametrize("module_name", MODULES)
def test_each_listed_name_is_defined_in_its_module(module_name):
    module = _module(module_name)
    assert set(module.__all__) <= _top_level_names(module)


@pytest.mark.parametrize("module_name", MODULES)
def test_package_attribute_is_the_module_object(module_name):
    module = _module(module_name)
    for name in module.__all__:
        assert getattr(jurylearn, name) is getattr(module, name), name
