"""Every process-wide `functools` memo in zenosim is on a reviewed list, and
so is every per-object one.

A memo that outlives one call warms every later call in the process, so in
the benchmark, which runs many passes in one process, it would turn work a
fresh CLI process pays for into a lookup.  Each entry below says why that
does not happen; a new cache fails this test until it gets an entry.  A
`cached_property` dies with its object, so it warms only the calls that
share that object; each one says which objects those are.  The walks keep
no memo of their own: `run_all_branches` sizes each batch and reads each
failure outcome where it makes them, and `oracle.brute_force_run`'s plan
table is a local that dies with the call.
"""

import ast
import importlib
import pkgutil
import types
from functools import cached_property
from pathlib import Path

import zenosim

CACHE_DECORATORS = {"cache", "lru_cache"}  # cached_property dies with its object

ALLOWED = {
    "interrogation._effective_map_cached":
        "the oracle's map memo; bench/workloads.clear_caches empties it before "
        "every pass and the benchmark checks its miss count",
    "cli.build_parser":
        "the argparse tree, which depends on no argument; built once per process",
}

PER_OBJECT = {
    "interrogation.QiParams._stacks":
        "the T_k^N stacks of one params object; the CLI builds its params per "
        "call, and the benchmark's workloads hold theirs across passes, so "
        "traced passes after the first reuse the stacks the first squared",
}


def _caches(module: str, source: str) -> list[str]:
    """`module.function` for each function that a functools cache decorates,
    and `module:line` for any other use of one (a call such as
    `lru_cache()(f)`), so that no form slips past."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "functools"
               for a in node.names if a.name in CACHE_DECORATORS}

    def is_cache(node) -> bool:
        node = node.func if isinstance(node, ast.Call) else node
        if isinstance(node, ast.Attribute):
            return (node.attr in CACHE_DECORATORS and isinstance(node.value, ast.Name)
                    and node.value.id == "functools")
        return isinstance(node, ast.Name) and node.id in aliases

    found, seen = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if is_cache(dec):
                    found.append(f"{module}.{node.name}")
                    seen.add(id(dec.func if isinstance(dec, ast.Call) else dec))
    found += [f"{module}:{node.lineno}" for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and is_cache(node)
              and id(node) not in seen]
    return found


def test_functools_caches_are_allowlisted():
    root = Path(zenosim.__file__).parent
    found = []
    for info in pkgutil.iter_modules([str(root)]):
        found += _caches(info.name, (root / f"{info.name}.py").read_text())
    assert sorted(found) == sorted(ALLOWED)
    assert all(reason for reason in ALLOWED.values())


def _per_object_memos(module: types.ModuleType) -> list[str]:
    """`module.Class.attribute` for each `cached_property` of a class that
    the module defines, however it was imported."""
    name = module.__name__.rpartition(".")[2]
    return [f"{name}.{cls.__qualname__}.{attr}"
            for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            for attr, value in vars(cls).items() if isinstance(value, cached_property)]


def test_per_object_memos_are_allowlisted():
    found = []
    for info in pkgutil.iter_modules(zenosim.__path__):
        found += _per_object_memos(importlib.import_module(f"zenosim.{info.name}"))
    assert sorted(found) == sorted(PER_OBJECT)
    assert all(reason for reason in PER_OBJECT.values())


def test_per_object_scan_sees_every_form():
    module = types.ModuleType("pkg.m")
    exec(
        "import functools\n"
        "from functools import cached_property as memo\n"
        "from zenosim.circuits import Instruction\n"
        "class K:\n"
        "    @functools.cached_property\n"
        "    def a(self): pass\n"
        "    @memo\n"
        "    def b(self): pass\n"
        "    def c(self): pass\n",
        vars(module))
    assert _per_object_memos(module) == ["m.K.a", "m.K.b"]


def test_scan_sees_every_cache_form():
    source = (
        "import functools\n"
        "from functools import lru_cache, cache\n"
        "@functools.cache\n"
        "def a(): pass\n"
        "@lru_cache(maxsize=4)\n"
        "def b(): pass\n"
        "class K:\n"
        "    @cache\n"
        "    def c(self): pass\n"
        "d = functools.lru_cache()(len)\n"
    )
    assert _caches("m", source) == ["m.a", "m.b", "m.c", "m:10"]
