"""Every process-wide `functools` memo in zenosim is on a reviewed list, and
so is every per-object one.

A memo that outlives one call warms every later call in the process, so in
the benchmark, which runs many passes in one process, it would turn work a
fresh CLI process pays for into a lookup.  Each entry below says why that
does not happen; a new cache fails this test until it gets an entry.  A
`cached_property` dies with its object, so it warms only the calls that
share that object; each one says which objects those are.  So does each
attribute a function sets on a frozen object through `object.__setattr__`
outside `__post_init__`, where it can only be a memo.  A program's plan
(`CircuitProgram._plan`, set in `__post_init__`: per instruction, its
prepared vector, a written bit's value count, a measure's failure label
and batch size) is no memo: validation builds it with the program, so
every program holds it from the start, and a fresh CLI process reads it
as the benchmark's passes do.  The walks keep no memo of their own:
`run_all_branches` reads each batch size and failure label from the
plan, and `oracle.brute_force_run`'s plan list (one plan per instruction,
built in one pass before the walk) and map table are locals that die with
the call.
"""

import ast
import gc
import importlib
import itertools
import pkgutil
import tracemalloc
import types
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import zenosim
from zenosim import interrogation, oracle, state
from zenosim.interrogation import QiParams
from zenosim.state import new_state, photon, stack_branches

CACHE_DECORATORS = {"cache", "lru_cache"}  # cached_property dies with its object

ALLOWED = {
    "interrogation._effective_map_cached":
        "the oracle's map memo; bench/workloads.clear_caches empties it before "
        "every pass and the benchmark checks its miss count",
    "cli.build_parser":
        "the argparse tree, which depends on no argument; built once per process",
    "oracle._gather_index":
        "the oracle's gather index per physical shape and axes, read-only: a gate's, "
        "which brings its subsystems to the front, and a leaf's, which reorders it "
        "into the live layout; at most 64 indices of at most 10 KiB "
        "(`DIMENSION_CAP` levels), 680 KiB in all.  A 12-round verify-finite run "
        "uses 38 distinct indices (seeds 0, 1009 and 2027 alike), under the bound; "
        "bench/workloads.clear_caches does not empty it.  A one-shot "
        "`oracle-check` still pays each first index (about 1-2 us on the demos' "
        "shapes), and only in-process callers such as the benchmark skip them all "
        "after their first pass",
    "state._sigma_max_of":
        "apply_local's contraction check, keyed by an operator's shape and bytes, "
        "at most 64 operators of at most 4 KiB; bench/workloads.clear_caches does "
        "not empty it.  A fresh `simulate --demo` call runs 1-6 distinct operators "
        "over 2-9 apply_local calls (the qicz demo none), so a one-shot CLI call "
        "still pays each first SVD, and only in-process callers such as the "
        "benchmark skip them all after their first pass",
}

PER_OBJECT = {
    "interrogation.QiParams._stacks":
        "the T_k^N stacks of one params object; the CLI builds its params per "
        "call, and the benchmark's workloads hold theirs across passes, so "
        "traced passes after the first reuse the stacks the first squared",
    "interrogation.QiParams._rows":
        "the T_k^N gathered per configuration of an interrogation's particles, per "
        "(rank, plan) of one params object: at most 32 entries of at most 4 KiB, "
        "144 KiB in all, the oldest dropped first, and dropped by copies and "
        "pickles.  The CLI builds its params per call, so only the runs of one "
        "call share them; the benchmark's workloads hold theirs across passes",
    "circuits.run._outcome_tree":
        "the outcome tree `run` keeps on its program for the last params: its "
        "segments, each kept measurement's draw table and each kept end's "
        "result, all of which die with the tree; it is budgeted "
        "by `_TREE_BYTES`, dropped by copies and pickles, and never built or "
        "read by `run_all_branches`",
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


def _set_attributes(module: str, source: str) -> list[str]:
    """`module.function.attribute` for each `object.__setattr__` call
    outside a `__post_init__`, with `function` the dotted path of the
    definitions around the call, and `module:line` for a call whose
    attribute is not a literal name."""
    found = []

    def visit(node, where: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, where + [child.name])
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr == "__setattr__"
                    and isinstance(func.value, ast.Name) and func.value.id == "object"
                    and where[-1:] != ["__post_init__"]):
                attr = child.args[1] if len(child.args) == 3 else None
                if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                    found.append(".".join([module, *where, attr.value]))
                else:
                    found.append(f"{module}:{child.lineno}")
            visit(child, where)

    visit(ast.parse(source), [])
    return found


def test_per_object_memos_are_allowlisted():
    root = Path(zenosim.__file__).parent
    found = []
    for info in pkgutil.iter_modules(zenosim.__path__):
        found += _per_object_memos(importlib.import_module(f"zenosim.{info.name}"))
        found += _set_attributes(info.name, (root / f"{info.name}.py").read_text())
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


def test_set_attribute_scan_sees_every_form():
    source = (
        "class K:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'a', 1)\n"
        "    def warm(self):\n"
        "        object.__setattr__(self, 'b', 2)\n"
        "        def inner():\n"
        "            object.__setattr__(self, 'c', 3)\n"
        "def run(program, name):\n"
        "    object.__setattr__(program, '_tree', {})\n"
        "    object.__setattr__(program, name, None)\n"
        "    setattr(program, 'd', 4)\n"
        "object.__setattr__(K(), 'e', 5)\n"
    )
    assert _set_attributes("m", source) == [
        "m.K.warm.b", "m.K.warm.inner.c", "m.run._tree", "m:10", "m.e"]


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


def test_contraction_memo_keeps_operators_up_to_its_size_bound():
    # a stack of sixteen photon operators is 4 KiB, at the bound; seventeen
    # are past it, and are checked by the same SVD but not kept
    one = new_state([photon("p")], [1])
    memo = state._sigma_max_of
    memo.cache_clear()
    for batch, kept in ((16, 1), (17, 0)):
        branches = stack_branches([one] * batch)
        ops = np.tile(np.eye(4, dtype=np.complex128), (batch, 1, 1))
        assert (ops.nbytes <= state._MEMO_OP_BYTES) == bool(kept)
        state.apply_local(branches, "p", ops)
        assert memo.cache_info().currsize == kept
        with pytest.raises(ValueError, match=r"^operator is not a contraction "
                                             r"\(sigma_max = 1\.5\)$"):
            state.apply_local(branches, "p", 1.5 * ops)
        assert memo.cache_info().currsize == 2 * kept
        memo.cache_clear()


def test_contraction_memo_retains_at_most_280_kib():
    # the worst case its docstring states: every entry a 4 KiB operator
    rng = np.random.default_rng(3)
    ops = [np.ascontiguousarray(0.01 * rng.normal(size=(16, 16)), dtype=np.complex128)
           for _ in range(2 * state._MEMO_ENTRIES)]
    memo = state._sigma_max_of
    memo.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for op in ops:
            memo(op.shape, op.tobytes())
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        memo.cache_clear()
    assert state._MEMO_ENTRIES * state._MEMO_OP_BYTES < retained <= 280 * 1024


def _retained(fill) -> int:
    """The bytes that calling `fill` leaves allocated, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fill()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_gather_index_memo_retains_at_most_680_kib():
    # the worst case its docstring states: 64 indices at DIMENSION_CAP, one
    # per order of the axes of a 4 x 4 x 4 x 4 x 5 state, twice as many asked
    shape = (4, 4, 4, 4, 5)
    assert np.prod(shape) == oracle.DIMENSION_CAP
    orders = list(itertools.permutations(range(len(shape))))[:128]
    memo = oracle._gather_index
    memo.cache_clear()
    try:
        retained = _retained(lambda: [memo(shape, axes) for axes in orders])
        assert memo.cache_info().currsize == 64
        assert not memo(shape, orders[-1]).flags.writeable
    finally:
        memo.cache_clear()
    assert 64 * oracle.DIMENSION_CAP * 8 < retained <= 680 * 1024


def test_rows_memo_keeps_at_most_32_plans_of_4_kib_in_144_kib():
    # a 63-position particle has 64 levels, so its rows are 64 2x2s: 4 KiB
    # of 16-byte entries, at the bound; each plan blocks it at another pair
    # of positions, and the memo keeps the last 32 of 64.  A particle with
    # one level more than the bound holds at the rows' own entry size is
    # gathered but not kept.
    params = QiParams(cycles=17, absorb_prob=0.5)
    work = np.zeros((4, 64), dtype=np.complex128)
    plans = [((0, blk, 63),) for blk in itertools.combinations(range(63), 2)][:64]
    retained = _retained(lambda: [interrogation._run_cycles(work, plan, params)
                                  for plan in plans])
    rows = params._rows
    assert [plan for _, plan in rows] == plans[32:]
    size = 64 * 4 * next(iter(rows.values())).itemsize
    assert size <= interrogation._ROWS_BYTES
    assert all(p.nbytes == size and not p.flags.writeable for p in rows.values())
    assert 32 * size < retained <= 144 * 1024
    over = interrogation._ROWS_BYTES * 64 // size + 1
    interrogation._run_cycles(np.zeros((4, over), dtype=np.complex128),
                              ((0, (0,), over - 1),), params)
    assert len(rows) == interrogation._ROWS_ENTRIES == 32
    assert (1, ((0, (0,), over - 1),)) not in rows
