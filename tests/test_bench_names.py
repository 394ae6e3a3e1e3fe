"""Every zenosim name the benchmark under `bench/` reaches for still exists,
and the bench's tracer still reads what it observes.

`bench/spans.py` wraps functions by (module, name), and `bench/workloads.py`
calls library functions and the map cache through module attributes, so a
renamed or deleted function would break `bench/run.py` without failing any
other test.  The tracer's observers read fields of arguments and results
(`BranchTree.leaves`, `QiParams.cycles`, `YieldEstimate.trials`, ...), so a
renamed field breaks a traced run the same way.  These checks only read the
files in `bench/`.
"""

import ast
import contextlib
import importlib
import io
import json
import runpy
from pathlib import Path

import numpy as np

from helpers import rounding_bounds

BENCH = Path(__file__).resolve().parents[1] / "bench"
ROOT = BENCH.parent


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


def _expected_spans() -> set[str]:
    """Every name in an `expected_spans = (...)` of `bench/workloads.py`."""
    names = set()
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text())):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "expected_spans"):
            names.update(ast.literal_eval(node.value))
    return names


def test_tracer_records_every_metric_and_expected_span():
    from zenosim import analysis, circuits, cli, interrogation, oracle
    from zenosim.gates import ImperfectionProfile
    from zenosim.interrogation import QiParams

    spans = runpy.run_path(str(BENCH / "spans.py"))
    for module, _, _, _ in spans["TARGETS"]:
        importlib.import_module(f"zenosim.{module}")
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    per_layer -= {"cli.stdout_bytes", "trace.overhead_frac"}  # bench/run.py adds these
    params = QiParams(cycles=333, absorb_prob=0.9)
    profile = ImperfectionProfile(p=0.9, q=0.85, r=0.9, s=0.8, eta=0.9)
    interrogation._effective_map_cached.cache_clear()
    tracer = spans["Tracer"]()
    tracer.install()
    try:
        for demo in ("cnot-direct-cz", "memory"):
            program = circuits.DEMOS[demo]()
            assert oracle.compare(program, params) <= rounding_bounds(program).compare
        circuits.run(circuits.DEMOS["cnot-memory"](), params, np.random.default_rng(5),
                     profile)
        analysis.monte_carlo_yield(circuits.DEMOS["cnot-direct-cx"](), profile, 1000, 7)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["simulate", "--demo", "bell"], ["sweep", "--what", "zeno"],
                         ["sweep", "--what", "fidelity"]):
                assert cli.main(argv) == 0, argv
        layers = tracer.layer_metrics()
        recorded = tracer.span_counts()
        cold = tracer.cold_map_calls()
    finally:
        tracer.remove()
    assert per_layer <= set(layers)
    assert not _expected_spans() - set(recorded)
    # the observers read something on every layer they count
    for name in ("oracle.leaves", "circuits.branches", "interrogation.qi_run.cycles",
                 "state.apply_local.bytes", "analysis.mc_trials_per_s"):
        assert layers[name][0] > 0, name
    misses = interrogation._effective_map_cached.cache_info().misses
    assert cold == misses == layers["interrogation.effective_map.columns"][0] > 0
