"""Sampled runs draw each outcome with its Born probability.

`run` draws one outcome per measurement through `state.sample_branch`.  A
draw that favours the first outcome, or that picks among the kept outcomes
evenly, still lands on an enumerated leaf, so only counting shows it.  Each
program here is sampled M times from a fixed seed in the exact limit, where
every state stays normalized and a leaf's `branch_weight` from
`run_all_branches` is its probability.  Each leaf's count must pass the
exact two-sided binomial test at the false-alarm level of 5.5 normal
standard deviations (about 3.8e-8), the level of the benchmark's per-op
bound.  Most demos split evenly in the exact limit, so the uneven programs
below carry the check against an even draw.
Runs are made through `circuits.run`, so that a mutant of it bound in the
module is the one the checks count.

Under an `ImperfectionProfile`, each charged instruction on a run's path
draws once before it acts, and a failed draw ends the run failed with the
record written so far.  A wrong charge or a skipped draw still ends runs
in cells that exist, so the profiled runs are counted per (record, failed)
cell too, against probabilities the test works out from the instructions
and `gates.CHARGED` alone.
"""

import contextlib
import io
import math
from collections import Counter

import numpy as np
import pytest

from zenosim import circuits
from zenosim.analysis import yield_formula
from zenosim.circuits import CNOT_FAMILIES, DEMOS, CircuitProgram, Instruction, run_all_branches
from zenosim.cli import main, serialize_program
from zenosim.gates import CHARGED, ImperfectionProfile
from zenosim.interrogation import QiParams
from zenosim.state import (
    PARTICLE_PM,
    PHOTON_COMPUTATIONAL,
    QUDIT_POSITION,
    norm_sq,
    particle,
    photon,
)

from helpers import FAILURE_LEAVES

IDEAL = QiParams(cycles=None)
SIGMAS = 5.5
# the chance that a normal variable lands SIGMAS deviations or more from
# its mean, on either side (about 3.8e-8)
FALSE_ALARM = math.erfc(SIGMAS / math.sqrt(2))
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


def _assert_cells(counts: Counter, expected: dict, runs: int) -> None:
    # each cell's count within SIGMAS binomial deviations of runs times its
    # probability; the probabilities cover every cell a run can end in
    assert math.isclose(sum(expected.values()), 1.0, abs_tol=1e-12)
    assert set(counts) <= set(expected)
    assert sum(counts.values()) == runs
    for key, p in expected.items():
        _assert_binomial(counts[key], p, runs, key)


def _assert_binomial(count: int, p: float, runs: int, label) -> None:
    # the exact two-sided binomial test at the level of a normal count
    # SIGMAS deviations out: a cell hit once where runs * p is far below 1
    # is as likely as 1 - (1 - p)^runs, which no normal bound reflects
    tail = _binomial_tail(count, p, runs)
    assert tail >= FALSE_ALARM / 2, (label, count, runs * p, tail)


def _binomial_tail(count: int, p: float, runs: int) -> float:
    """P(X <= count) for a count below runs * p, else P(X >= count), for X
    binomial over `runs` trials of chance `p`: the pmf summed from `count`
    away from the mean, where its terms only shrink."""
    if not 0 < p < 1:
        return float(count == runs * p)
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(runs + 1)
    total = 0.0
    stop, step = (-1, -1) if count < runs * p else (runs + 1, 1)
    for k in range(count, stop, step):
        term = math.exp(log_n - math.lgamma(k + 1) - math.lgamma(runs - k + 1)
                        + k * log_p + (runs - k) * log_q)
        total += term
        if term <= total * 1e-17:
            break
    return min(total, 1.0)


def _assert_born(counts: Counter, program: CircuitProgram, runs: int) -> None:
    _assert_cells(counts, {_key(leaf.classical, leaf.failed): leaf.branch_weight
                           for leaf in run_all_branches(program, IDEAL)}, runs)


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
        result = circuits.run(program, IDEAL, rng)
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


# --- profiled runs -------------------------------------------------------------

PROFILE = ImperfectionProfile(p=0.9, q=0.85, r=0.8, s=0.75, eta=0.7)
PROFILED_RUNS = 4000
# name -> (program, params, CNOT family whose yield_formula the unfailed
# fraction must match, if any)
PROFILED = {
    **{f"cnot-{family}": (DEMOS[f"cnot-{family}"], IDEAL, family)
       for family in CNOT_FAMILIES},
    "cnot-memory-failure-leaves": (DEMOS["cnot-memory"], FAILURE_LEAVES, None),
    "uneven-cascade": (_uneven_cascade, IDEAL, None),
}


def _written_at(program: CircuitProgram) -> dict[str, int]:
    """Bit -> index of the one instruction that writes it."""
    written = {}
    for i, instr in enumerate(program.instructions):
        arg = {"measure": "bit", "xor": "out"}.get(instr.op)
        if arg is not None:
            assert instr.args[arg] not in written, "a bit written twice"
            written[instr.args[arg]] = i
    return written


def _profiled_cells(program: CircuitProgram, params: QiParams,
                    profile: ImperfectionProfile) -> dict:
    """(record, failed) cell -> the chance that a profiled run ends in it.

    A run reaches leaf L of `run_all_branches` with L's branch weight over
    the norm^2 of the state each measurement on its path finds (a draw
    picks among the outcomes that state holds).  On the way, it draws once
    for each charged instruction up to L's end, a photon measurement's
    detectors included: a failed draw ends it failed, with the bits written
    before that instruction.  A failure leaf ends at the measurement that
    wrote its last bit."""
    instructions = program.instructions
    written = _written_at(program)

    def before(record: dict, i: int) -> dict:
        return {bit: value for bit, value in record.items() if written[bit] < i}

    found = {}  # (measurement, record before it) -> norm^2 of the state there
    for m, instr in enumerate(instructions):
        if instr.op == "measure":
            prefix = CircuitProgram(program.subsystems, program.bits, instructions[:m])
            for leaf in run_all_branches(prefix, params):
                if not leaf.failed:
                    found[m, _key(leaf.classical, False)] = norm_sq(leaf.final_state)
    cells = Counter()
    for leaf in run_all_branches(program, params):
        end = max(map(written.get, leaf.classical)) if leaf.failed else len(instructions) - 1
        path = instructions[:end + 1]
        reach = leaf.branch_weight
        for i, instr in enumerate(path):
            if instr.op == "measure":
                reach /= found[i, _key(before(leaf.classical, i), False)]
        for i, instr in enumerate(path):
            charge = CHARGED.get(instr.census)
            if charge is not None:
                works = getattr(profile, charge)
                cells[_key(before(leaf.classical, i), True)] += reach * (1 - works)
                reach *= works
        cells[_key(leaf.classical, leaf.failed)] += reach
    return cells


def assert_profiled_runs_follow_their_charges(name: str) -> None:
    """`PROFILED_RUNS` seeded runs of `PROFILED[name]` under `PROFILE`,
    counted per (record, failed) cell and as a failed total against the
    binomial bound; also a killer in `tests/test_mutants.py`."""
    build, params, family = PROFILED[name]
    program = build()
    expected = _profiled_cells(program, params, PROFILE)
    unfailed = sum(p for (_, failed), p in expected.items() if not failed)
    if family is not None:
        assert math.isclose(unfailed, yield_formula(family, PROFILE), rel_tol=1e-12)
    rng = np.random.default_rng(sum(map(ord, name)))
    counts = Counter()
    for _ in range(PROFILED_RUNS):
        result = circuits.run(program, params, rng, PROFILE)
        counts[_key(result.classical, result.failed)] += 1
    _assert_cells(counts, expected, PROFILED_RUNS)
    failed = sum(n for (_, fail), n in counts.items() if fail)
    _assert_binomial(failed, 1 - unfailed, PROFILED_RUNS, "failed")


def test_profiled_programs_cover_failure_leaves_and_charges_after_a_measurement():
    build, params, _ = PROFILED["cnot-memory-failure-leaves"]
    assert any(leaf.failed for leaf in run_all_branches(build(), params))
    cascade = _uneven_cascade().instructions
    first = next(i for i, instr in enumerate(cascade) if instr.op == "measure")
    assert any(CHARGED.get(instr.census) for instr in cascade[first + 1:])


@pytest.mark.parametrize("name", sorted(PROFILED))
def test_profiled_runs_follow_their_charges(name):
    assert_profiled_runs_follow_their_charges(name)
