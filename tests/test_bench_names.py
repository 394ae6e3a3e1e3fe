"""Every zenosim name the benchmark under `bench/` reaches for still exists.

`bench/spans.py` wraps functions by (module, name), and `bench/workloads.py`
calls library functions and the map cache through module attributes, so a
renamed or deleted function would break `bench/run.py` without failing any
other test.  These checks only read the files in `bench/`.
"""

import ast
import importlib
import runpy
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _zenosim_uses(path: Path) -> list[tuple[str, str]]:
    """(module, attribute) for each `from zenosim import m` then `m.attr`,
    and each `from zenosim.m import attr`, in one source file."""
    tree = ast.parse(path.read_text())
    modules, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "zenosim":
            modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("zenosim."):
            uses += [(node.module[len("zenosim."):], alias.name) for alias in node.names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.append((node.value.id, node.attr))
    return uses


def _resolves(module: str, name: str) -> bool:
    return hasattr(importlib.import_module(f"zenosim.{module}"), name)


def test_traced_targets_resolve():
    # run_path compiles the source itself, so nothing is written under bench/
    spans = runpy.run_path(str(BENCH / "spans.py"))
    targets = [(module, fn) for module, fn, _, _ in spans["TARGETS"]]
    assert ("gates", "classically_controlled") in targets
    assert not [t for t in targets if not _resolves(*t)]


def test_workload_attributes_resolve():
    uses = _zenosim_uses(BENCH / "workloads.py")
    assert ("interrogation", "_effective_map_cached") in uses
    assert not [u for u in uses if not _resolves(*u)]
    from zenosim import interrogation

    interrogation._effective_map_cached.cache_info()
    assert callable(interrogation._effective_map_cached.cache_clear)
