"""The package namespace is exactly the union of its modules' ``__all__`` lists,
and importing it, like running a command that never vectorizes, leaves numpy unloaded."""

import ast
import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
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


# Commands that never fold or sample start without numpy; the fold and the
# sampler import it on first use.  The test session has numpy loaded
# already, so a fresh interpreter runs the commands and reports.
NUMPY_FREE = [
    ["majority", "--n", "11", "--p", "0.6"],
    ["extremal", "--n", "3", "--pbar", "0.7"],
    ["majorize", "--a", "1,1,0.1", "--b", "0.7,0.7,0.7"],
    ["cost", "--pstar", "0.8", "--profile", "linear:c=1.0", "--n-list", "1,3"],
    ["rates", "critical", "--n-max", "21"],
    ["tradeoff", "--c1", "1", "--cg", "2.5", "--n", "3", "--t-max", "1.5", "--points", "64"],
    ["bound", "concentration", "--n", "11", "--pbar", "0.7"],
] + [["figure", "--id", str(k)] for k in range(1, 7)]

NUMPY_USERS = {
    ("majority", "--probs", "0.6,0.7,0.8"): hashlib.sha256(b"0.788\n").hexdigest(),
    ("figure", "--id", "7"): "e8be5009db570fb2dd58a9031f302df15d3272f8efa761524f1f163ca1b89f46",
}

FRESH_RUN = """\
import contextlib, hashlib, io, json, sys
import jurylearn
from jurylearn import cli, dynamics
cli.build_parser()
for name in dynamics.list_scenarios():
    dynamics.load_scenario(name)
runs = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    runs.append((code, hashlib.sha256(out.getvalue().encode()).hexdigest(), "numpy" in sys.modules))
print(json.dumps(runs))
"""


def test_commands_that_never_vectorize_start_without_numpy():
    src = os.path.dirname(os.path.dirname(jurylearn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argvs = NUMPY_FREE + [list(argv) for argv in NUMPY_USERS]
    done = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, json.dumps(argvs)], env=env, capture_output=True, text=True, check=True
    )
    after_setup, *runs = json.loads(done.stdout)
    assert not after_setup
    assert [(code, loaded) for code, _, loaded in runs[: len(NUMPY_FREE)]] == [(0, False)] * len(NUMPY_FREE)
    assert runs[len(NUMPY_FREE) :] == [[0, digest, True] for digest in NUMPY_USERS.values()]
