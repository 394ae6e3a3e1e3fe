"""Sampled runs draw each outcome with its Born probability.

`run` draws one outcome per measurement through `state.sample_branch`.  A
draw that favours the first outcome, or that picks among the kept outcomes
evenly, still lands on an enumerated leaf, so only counting shows it.  Each
program here is sampled M times from a fixed seed in the exact limit, where
every state stays normalized and a leaf's `branch_weight` from
`run_all_branches` is its probability.  Each leaf's count must lie within
5.5 binomial standard deviations of M times that weight, the false-alarm
rule the benchmark applies per op.  Most demos split evenly in the exact
limit, so the uneven programs below carry the check against an even draw.
"""

import contextlib
import io
import math
from collections import Counter

import numpy as np
import pytest

from zenosim.circuits import DEMOS, CircuitProgram, Instruction, run, run_all_branches
from zenosim.cli import main, serialize_program
from zenosim.interrogation import QiParams
from zenosim.state import PARTICLE_PM, PHOTON_COMPUTATIONAL, QUDIT_POSITION, particle, photon

IDEAL = QiParams(cycles=None)
SIGMAS = 5.5
RUNS = 2000  # sampled runs per program
CLI_RUNS = 300  # in-process `simulate --branches sample` calls, one seed each


def _amplitudes(*weights) -> list[list[float]]:
    return [[math.sqrt(w), 0.0] for w in weights]


def _uneven_photon() -> CircuitProgram:
    # one photon at 0.1 / 0.9, measured
    return CircuitProgram((photon("p"),), ("a",), (
        Instruction("prepare", {"target": "p", "state": _amplitudes(0.1, 0.9)}),
        Instruction("measure", {"target": "p", "basis": PHOTON_COMPUTATIONAL, "bit": "a"}),
    ))


def _uneven_cascade() -> CircuitProgram:
    # a 3-position particle at 0.05 / 0.25 / 0.7 measured first; its value
    # sets the phase on a photon at 0.3 / 0.7, so the photon's outcome
    # weights after a Hadamard differ per first outcome
    return CircuitProgram((particle("q", positions=3), photon("p")), ("k", "a"), (
        Instruction("prepare", {"target": "q", "state": _amplitudes(0.05, 0.25, 0.7)}),
        Instruction("measure", {"target": "q", "basis": QUDIT_POSITION, "bit": "k"}),
        Instruction("prepare", {"target": "p", "state": _amplitudes(0.3, 0.7)}),
        Instruction("cphase", {"key": "k", "target": "p", "coeff": 1.0}),
        Instruction("photon_h", {"target": "p"}),
        Instruction("measure", {"target": "p", "basis": PHOTON_COMPUTATIONAL, "bit": "a"}),
    ))


def _uneven_failure() -> CircuitProgram:
    # a particle with weight 0.2 on its exploded level, measured in the pm
    # basis: the failure outcome is a leaf sampled like any other
    return CircuitProgram((particle("b"),), ("m",), (
        Instruction("prepare", {"target": "b", "state": _amplitudes(0.5, 0.3, 0.2)}),
        Instruction("measure", {"target": "b", "basis": PARTICLE_PM, "bit": "m"}),
    ))


UNEVEN = {"photon": _uneven_photon, "cascade": _uneven_cascade,
          "failure": _uneven_failure}
PROGRAMS = {**{name: build for name, build in DEMOS.items()
               if len(run_all_branches(build(), IDEAL)) >= 2},
            **{f"uneven-{name}": build for name, build in UNEVEN.items()}}


def _key(classical: dict, failed: bool) -> tuple:
    return tuple(sorted(classical.items())), failed


def _assert_born(counts: Counter, program: CircuitProgram, runs: int) -> None:
    weights = {_key(leaf.classical, leaf.failed): leaf.branch_weight
               for leaf in run_all_branches(program, IDEAL)}
    assert math.isclose(sum(weights.values()), 1.0, abs_tol=1e-12)
    assert set(counts) <= set(weights)
    assert sum(counts.values()) == runs
    for key, p in weights.items():
        bound = SIGMAS * math.sqrt(runs * p * (1 - p))
        assert abs(counts[key] - runs * p) <= bound, (key, counts[key], runs * p)


def test_programs_cover_uneven_and_failure_leaves():
    assert {"bell", "memory", "cnot-memory", "wstate-3"} <= set(PROGRAMS)
    weights = [leaf.branch_weight for name in UNEVEN
               for leaf in run_all_branches(UNEVEN[name](), IDEAL)]
    assert len(set(np.round(weights, 9))) >= 8
    assert any(leaf.failed for leaf in run_all_branches(_uneven_failure(), IDEAL))


def assert_sampled_leaves_follow_branch_weights(name: str) -> None:
    """`RUNS` seeded runs of `PROGRAMS[name]`, counted per leaf against the
    binomial bound; also a killer in `tests/test_mutants.py`."""
    program = PROGRAMS[name]()
    rng = np.random.default_rng(sum(map(ord, name)))
    counts = Counter()
    for _ in range(RUNS):
        result = run(program, IDEAL, rng)
        counts[_key(result.classical, result.failed)] += 1
    _assert_born(counts, program, RUNS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_sampled_leaves_follow_branch_weights(name):
    assert_sampled_leaves_follow_branch_weights(name)


def test_cli_samples_follow_branch_weights(tmp_path):
    program = _uneven_cascade()
    path = tmp_path / "cascade.json"
    path.write_text(serialize_program(program))
    counts = Counter()
    for seed in range(CLI_RUNS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["simulate", str(path), "--ideal", "--branches", "sample",
                  "--seed", str(seed), "--out", "csv"])
        _, row = out.getvalue().splitlines()
        _, failed, _, _, cell = row.split(",")
        classical = {bit: int(value) for bit, value in
                     (pair.split("=") for pair in cell.split(";"))}
        counts[_key(classical, failed == "1")] += 1
    _assert_born(counts, program, CLI_RUNS)
