"""Every process-wide `functools` memo in zenosim is on a reviewed list.

A memo that outlives one call warms every later call in the process, so in
the benchmark, which runs many passes in one process, it would turn work a
fresh CLI process pays for into a lookup.  Each entry below says why that
does not happen; a new cache fails this test until it gets an entry.
"""

import ast
import pkgutil
from pathlib import Path

import zenosim

CACHE_DECORATORS = {"cache", "lru_cache"}  # cached_property dies with its object

ALLOWED = {
    "interrogation._effective_map_cached":
        "the oracle's map memo; bench/workloads.clear_caches empties it before "
        "every pass and the benchmark checks its miss count",
    "circuits._failure_outcome":
        "the failure outcome label of a (spec, basis) pair: a constant of the "
        "basis rule, at most 256 entries; a hit saves one basis_outcomes call",
    "cli.build_parser":
        "the argparse tree, which depends on no argument; built once per process",
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
