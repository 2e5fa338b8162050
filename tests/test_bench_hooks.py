"""The benchmark's tracer wraps package functions by name; keep those names resolvable.

``perfbench/tracer.py`` lists the functions it times (``TRACED``) and the
cached ones whose hit counts it reads (``CACHED``).  A rename or a change of
decorator in the package would silently drop them from a traced bench run,
so these tests resolve every name the way ``Tracer._plan`` does.
``perfbench/child.py``'s cold-state guard calls ``cache_info()`` on each memo
of its ``CACHES``, so every one of those must stay a memo of the package.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from memos import MEMOS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("unicoh_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolve(module_name: str, path: str):
    """Owner and attribute of a traced function, read through vars() as the tracer does."""
    owner, *attrs = [importlib.import_module(f"unicoh.{module_name}")] + path.split(".")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1]


@pytest.mark.parametrize("module_name,path,name", tracer.TRACED, ids=[t[2] for t in tracer.TRACED])
def test_traced_name_resolves(module_name, path, name):
    owner, attr = _resolve(module_name, path)
    assert attr in vars(owner), f"{name}: {attr!r} is not defined on {owner!r}"
    assert callable(vars(owner)[attr])


@pytest.mark.parametrize("name", tracer.CACHED)
def test_cached_name_is_functools_cache(name):
    (module_name, path), = [(m, p) for m, p, n in tracer.TRACED if n == name]
    owner, attr = _resolve(module_name, path)
    fn = vars(owner)[attr]
    assert callable(getattr(fn, "cache_info", None)), f"{name} has no cache_info()"
    assert fn.cache_parameters() == {"maxsize": None, "typed": False}


def test_plan_patches_every_traced_function():
    for module_name, path, _ in tracer.TRACED:
        _resolve(module_name, path)
    plan = tracer.Tracer()._plan()
    patched = {id(original) for _, _, original, _ in plan}
    for module_name, path, name in tracer.TRACED:
        owner, attr = _resolve(module_name, path)
        assert id(vars(owner)[attr]) in patched, f"{name} would not be traced"


def _child_caches() -> list[tuple[str, str]]:
    """(module, function) of each value of child.py's CACHES, read with ast so
    that perfbench's calib is not imported."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    (caches,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["CACHES"]
    ]
    return [(value.value.id, value.attr) for value in caches.values]


@pytest.mark.parametrize("module_name,attr", _child_caches())
def test_child_cache_is_a_package_memo(module_name, attr):
    fn = vars(importlib.import_module(f"unicoh.{module_name}"))[attr]
    assert fn.cache_parameters() == {"maxsize": None, "typed": False}
    assert any(fn is memo for memo in MEMOS)
