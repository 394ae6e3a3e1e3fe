"""In-memory span tracing of zenosim's public functions.

`Tracer.install` wraps each function in TARGETS and rebinds every name that
refers to it in every loaded `zenosim` module, so calls made through an
imported name (`circuits.qicz`, `gates.apply_local`, `oracle.effective_map`,
`analysis.qi_run`, ...) are recorded as well as calls through the defining
module.  `Tracer.remove` puts the original functions back.

A span records its name, start, end, parent span and op id, plus the
counts its observer reads from the call's arguments and result.  Spans
stay in memory until `write_jsonl` is called at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# outcomes a measurement basis offers; position bases offer one per level
_BASIS_OUTCOMES = {"photon_computational": 3, "particle_pm": 3}


def _obs_apply_local(args, kwargs, result):
    state, op = args[0], args[2]
    moved = state.amps.nbytes + result.amps.nbytes + np.asarray(op).nbytes
    return {"bytes": moved, "live_dim": state.amps.size}


def _obs_branch_all(args, kwargs, result):
    state, target, basis = args[0], args[1], args[2]
    offered = _BASIS_OUTCOMES.get(basis) or state.spec(target).dim
    return {"kept": len(result), "offered": offered, "live_dim": state.amps.size}


def _obs_qi_run(args, kwargs, result):
    return {"cycles": args[4].cycles or 0, "live_dim": args[0].amps.size}


def _obs_run_all_branches(args, kwargs, result):
    return {"branches": len(result), "failed": sum(r.failed for r in result)}


def _obs_brute_force_run(args, kwargs, result):
    return {"leaves": len(result.leaves)}


def _obs_monte_carlo_yield(args, kwargs, result):
    return {"trials": result.trials}


GATE_FUNCTIONS = (
    "photon_h", "photon_x", "photon_z", "particle_h", "particle_x",
    "particle_z", "prepare_particle_pm", "prepare_particle_uniform",
    "classically_controlled", "classically_controlled_phase",
)

# (defining module, function, span name, observer)
TARGETS = (
    [("state", "apply_local", "state.apply_local", _obs_apply_local),
     ("state", "branch_all", "state.branch_all", _obs_branch_all)]
    + [("gates", fn, f"gates.{fn}", None) for fn in GATE_FUNCTIONS]
    + [("interrogation", "qi_run", "interrogation.qi_run", _obs_qi_run),
       ("interrogation", "qicz", "interrogation.qicz", None),
       ("interrogation", "qicz_multi", "interrogation.qicz_multi", None),
       ("interrogation", "effective_map", "interrogation.effective_map", None),
       ("circuits", "run", "circuits.run", None),
       ("circuits", "run_all_branches", "circuits.run_all_branches",
        _obs_run_all_branches),
       ("oracle", "brute_force_run", "oracle.brute_force_run",
        _obs_brute_force_run),
       ("oracle", "compare", "oracle.compare", None),
       ("analysis", "monte_carlo_yield", "analysis.monte_carlo_yield",
        _obs_monte_carlo_yield),
       ("analysis", "zeno_sweep", "analysis.zeno_sweep", None),
       ("analysis", "fidelity_sweep", "analysis.fidelity_sweep", None),
       ("cli", "main", "cli.main", None)]
)

_EFFECTIVE_MAP = "interrogation.effective_map"


class Tracer:
    def __init__(self):
        self._patches = []
        self.op_id = -1
        self.reset()

    def reset(self):
        """Drop recorded spans; the clock origin moves to now."""
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.counts = []
        self.map_ancestor = []  # nearest enclosing effective_map span, or -1
        self._stack = []
        self._t0 = time.perf_counter()

    def _wrap(self, span_name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.names)
            parent = self._stack[-1] if self._stack else -1
            self.names.append(span_name)
            self.parents.append(parent)
            self.ops.append(self.op_id)
            self.ends.append(None)
            self.counts.append(None)
            if span_name == _EFFECTIVE_MAP:
                self.map_ancestor.append(sid)
            else:
                self.map_ancestor.append(
                    self.map_ancestor[parent] if parent >= 0 else -1)
            self._stack.append(sid)
            self.starts.append(time.perf_counter() - self._t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[sid] = time.perf_counter() - self._t0
                self._stack.pop()
            if observe is not None:
                self.counts[sid] = observe(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if (name == "zenosim" or name.startswith("zenosim."))
                   and m is not None]
        for mod_name, fn_name, span_name, observe in TARGETS:
            original = getattr(sys.modules[f"zenosim.{mod_name}"], fn_name)
            wrapper = self._wrap(span_name, original, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def remove(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def span_counts(self) -> dict:
        """Spans recorded per name."""
        out = {}
        for name in self.names:
            out[name] = out.get(name, 0) + 1
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics from the recorded spans (see README.md)."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        self_s = [dur[i] - child[i] for i in range(n)]

        calls, selfs, sums = {}, {}, {}
        columns = {}
        live_dim_max = 0
        for i, name in enumerate(self.names):
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + self_s[i]
            counts = self.counts[i]
            if counts:
                for key, value in counts.items():
                    if key == "live_dim":
                        live_dim_max = max(live_dim_max, value)
                    else:
                        k = (name, key)
                        sums[k] = sums.get(k, 0) + value
            if name == "interrogation.qi_run" and self.map_ancestor[i] >= 0:
                anc = self.map_ancestor[i]
                columns[anc] = columns.get(anc, 0) + 1

        def c(name):
            return calls.get(name, 0)

        def s(name):
            return selfs.get(name, 0.0)

        def total(name, key):
            return sums.get((name, key), 0)

        def ratio(num, den):
            return num / den if den else 0.0

        map_total_s = sum(dur[i] for i, nm in enumerate(self.names)
                          if nm == _EFFECTIVE_MAP)
        cycles = total("interrogation.qi_run", "cycles")
        branches = total("circuits.run_all_branches", "branches")
        gate_spans = [f"gates.{fn}" for fn in GATE_FUNCTIONS]
        return {
            "state.apply_local.calls": (c("state.apply_local"), "count"),
            "state.apply_local.self_s": (s("state.apply_local"), "s"),
            "state.apply_local.bytes": (total("state.apply_local", "bytes"), "B"),
            "state.branch_all.calls": (c("state.branch_all"), "count"),
            "state.branch_all.self_s": (s("state.branch_all"), "s"),
            "state.branch_all.kept_frac": (
                ratio(total("state.branch_all", "kept"),
                      total("state.branch_all", "offered")), "frac"),
            "state.live_dim_max": (live_dim_max, "count"),
            "gates.calls": (sum(c(g) for g in gate_spans), "count"),
            "gates.self_s": (sum(s(g) for g in gate_spans), "s"),
            "interrogation.qi_run.calls": (c("interrogation.qi_run"), "count"),
            "interrogation.qi_run.self_s": (s("interrogation.qi_run"), "s"),
            "interrogation.qi_run.cycles": (cycles, "count"),
            "interrogation.qi_run.ns_per_cycle": (
                ratio(s("interrogation.qi_run") * 1e9, cycles), "ns"),
            "interrogation.effective_map.calls": (c(_EFFECTIVE_MAP), "count"),
            "interrogation.effective_map.total_s": (map_total_s, "s"),
            "interrogation.effective_map.columns": (sum(columns.values()), "count"),
            "interrogation.effective_map.cold_frac": (
                ratio(len(columns), c(_EFFECTIVE_MAP)), "frac"),
            "circuits.run_all_branches.calls": (
                c("circuits.run_all_branches"), "count"),
            "circuits.run_all_branches.self_s": (
                s("circuits.run_all_branches"), "s"),
            "circuits.branches": (branches, "count"),
            "circuits.failed_branch_frac": (
                ratio(total("circuits.run_all_branches", "failed"), branches),
                "frac"),
            "circuits.run.calls": (c("circuits.run"), "count"),
            "circuits.run.self_s": (s("circuits.run"), "s"),
            "oracle.brute_force_run.calls": (c("oracle.brute_force_run"), "count"),
            "oracle.brute_force_run.self_s": (s("oracle.brute_force_run"), "s"),
            "oracle.leaves": (total("oracle.brute_force_run", "leaves"), "count"),
            "oracle.compare.self_s": (s("oracle.compare"), "s"),
            "analysis.monte_carlo_yield.calls": (
                c("analysis.monte_carlo_yield"), "count"),
            "analysis.monte_carlo_yield.self_s": (
                s("analysis.monte_carlo_yield"), "s"),
            "analysis.mc_trials_per_s": (
                ratio(total("analysis.monte_carlo_yield", "trials"),
                      s("analysis.monte_carlo_yield")), "1/s"),
            "analysis.sweep.self_s": (
                s("analysis.zeno_sweep") + s("analysis.fidelity_sweep"), "s"),
            "cli.main.calls": (c("cli.main"), "count"),
            "cli.main.self_s": (s("cli.main"), "s"),
        }

    def cold_map_calls(self) -> int:
        """effective_map calls that ran the cycle engine (cache misses)."""
        return len({a for i, a in enumerate(self.map_ancestor)
                    if a >= 0 and self.names[i] == "interrogation.qi_run"})

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "op": self.ops[i]}) + "\n")
