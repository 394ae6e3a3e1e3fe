"""The batched walk of `run_all_branches` against the same walk taken one
branch at a time, and the module attributes the bench tracer rebinds.

`_one_branch_at_a_time` copies a program with every measure's plan entry
binding batches of one branch, so `run_all_branches` runs each segment on
the plain state of one branch, as `run` does.  The batched walk, in which
sibling branches share one stacked state per instruction, must give
byte-equal results in the same order.  What both walks compute is checked
against the 50-digit walk in `tests/test_reference_walk.py`."""

import copy
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import FAILURE_LEAVES
from zenosim import circuits, gates, interrogation, state as engine_state
from zenosim.circuits import DEMOS, CircuitProgram, Instruction, run, run_all_branches
from zenosim.interrogation import KEEP, PI_OVER_2N, QiParams
from zenosim.state import (
    BRANCH_CUTOFF,
    PARTICLE_PM,
    PHOTON_COMPUTATIONAL,
    QUDIT_POSITION,
    StateVector,
    particle,
    photon,
)

from test_properties import valid_programs


def _one_branch_at_a_time(program: CircuitProgram) -> CircuitProgram:
    """`program` with every measure binding batches of one branch."""
    plan = [(entry[0], 1) if instr.op == "measure" else entry
            for instr, entry in zip(program.instructions, program._plan)]
    single = copy.copy(program)
    object.__setattr__(single, "_plan", tuple(plan))
    return single


def _record(result):
    amps = result.final_state.amps
    return (type(amps), amps.tobytes(), amps.shape, result.final_state.layout,
            list(result.classical.items()), result.failed,
            result.branch_weight.hex(), float(result.success_probability).hex())


def _assert_same_walk(program, params):
    got = [_record(r) for r in run_all_branches(program, params)]
    assert got == [_record(r) for r in run_all_branches(_one_branch_at_a_time(program), params)]
    return got


PARAMS = {
    "exact": QiParams(cycles=None),
    "n3": QiParams(cycles=3),
    "n17-pi-2n": QiParams(cycles=17, theta_rule=PI_OVER_2N),
    "n333-lossy": QiParams(cycles=333, absorb_prob=0.9, cycle_loss=1e-3),
    "n10000": QiParams(cycles=10_000),
    "keep-residual": QiParams(cycles=17, absorb_prob=0.9, residual_v_policy=KEEP),
    "failure-leaves": FAILURE_LEAVES,
}


def _ins(op, **args):
    return Instruction(op, args)


def register_program() -> CircuitProgram:
    """A 16-level register that stays live while five photons are prepared,
    H'd and measured in turn, and is measured at the end: its bit has 15
    values, each photon's 2."""
    instructions = [_ins("prepare", target="r", uniform=True)]
    for i in range(5):
        instructions += [_ins("prepare", target=f"p{i}", level=0),
                         _ins("photon_h", target=f"p{i}"),
                         _ins("measure", target=f"p{i}", basis=PHOTON_COMPUTATIONAL,
                              bit=f"b{i}")]
    instructions.append(_ins("measure", target="r", basis=QUDIT_POSITION, bit="r"))
    return CircuitProgram(
        (particle("r", positions=15),) + tuple(photon(f"p{i}") for i in range(5)),
        tuple(f"b{i}" for i in range(5)) + ("r",), tuple(instructions))


PROGRAMS = {**DEMOS, "register": register_program}


@pytest.mark.parametrize("params", list(PARAMS.values()), ids=list(PARAMS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_demo_walk_is_byte_equal_to_the_one_branch_walk(name, params):
    _assert_same_walk(PROGRAMS[name](), params)


def test_keep_residual_reaches_failure_leaves_between_measurements():
    # the memory CNOT under the keep policy measures photons that still hold
    # |1V>, so heralded failures end branches while their siblings go on
    got = _assert_same_walk(DEMOS["cnot-memory"](), PARAMS["keep-residual"])
    failed = [r[5] for r in got]
    assert any(failed) and not all(failed)


@settings(max_examples=60, deadline=None)
@given(program=valid_programs())
def test_generated_walks_are_byte_equal_to_the_one_branch_walk(program):
    for params in (PARAMS["exact"], QiParams(cycles=3, absorb_prob=0.8, cycle_loss=1e-3)):
        _assert_same_walk(program, params)


def test_branch_below_the_cutoff_is_dropped_the_same_way():
    tiny = math.sqrt(BRANCH_CUTOFF) / 10  # weight 1e-17
    program = CircuitProgram(
        (photon("p"), photon("q"), particle("m")), ("a", "b"), (
            _ins("prepare", target="p", state=[[1, 0], [tiny, 0]]),
            _ins("prepare", target="q", level=0),
            _ins("photon_h", target="q"),
            _ins("prepare", target="m", pm="+"),
            _ins("qicz", photon="q", particle="m"),
            _ins("measure", target="q", basis=PHOTON_COMPUTATIONAL, bit="a"),
            _ins("cx", bit="a", target="p"),
            _ins("measure", target="p", basis=PHOTON_COMPUTATIONAL, bit="b"),
            _ins("cz", bit="b", target="m"),
        ))
    for params in (PARAMS["exact"], PARAMS["n3"]):
        got = _assert_same_walk(program, params)
        assert len(got) == 2  # each q outcome keeps one p outcome of two


def test_leaves_with_every_subsystem_measured():
    # two coin flips: the last level's batch holds no subsystem at all, so
    # each leaf's amplitudes are one 0-d array
    program = CircuitProgram((photon("p"), photon("q")), ("a", "b"), (
        _ins("prepare", target="p", level=0),
        _ins("photon_h", target="p"),
        _ins("measure", target="p", basis=PHOTON_COMPUTATIONAL, bit="a"),
        _ins("prepare", target="q", level=0),
        _ins("photon_h", target="q"),
        _ins("measure", target="q", basis=PHOTON_COMPUTATIONAL, bit="b"),
    ))
    got = _assert_same_walk(program, PARAMS["exact"])
    assert [r[2] for r in got] == [()] * 4
    assert all(r[0] is np.ndarray for r in got)


def test_failure_outcome_and_an_emptied_branch_mid_program():
    # the particle holds 0.36 of its weight on the exploded level, a heralded
    # failure at the first measurement; at N = 1 under the pi/2N rule the
    # interrogation takes all of q's |1H> weight, so the branches that leave
    # q on |1H> (c = 0) find nothing at the last measurement, while their
    # siblings in the same batch, flipped to |0>, go on
    h = math.sqrt(0.5)
    program = CircuitProgram(
        (photon("p"), photon("q"), particle("m"), particle("n", positions=3)),
        ("a", "b", "c", "k"), (
            _ins("prepare", target="m", state=[[0.8, 0], [0, 0], [0.6, 0]]),
            _ins("prepare", target="p", level=0),
            _ins("photon_h", target="p"),
            _ins("measure", target="m", basis=PARTICLE_PM, bit="a"),
            _ins("measure", target="p", basis=PHOTON_COMPUTATIONAL, bit="b"),
            _ins("xor", a="a", b="b", out="c"),
            _ins("prepare", target="q", state=[[0, 0], [1, 0]]),
            _ins("cx", bit="c", target="q"),
            _ins("prepare", target="n", state=[[h, 0], [0, 0], [h, 0], [0, 0]]),
            _ins("qicz_multi", photon="q", particles=["n"], blocking=[[0, 1]]),
            _ins("cphase", key="a", target="q", coeff=0.7),
            _ins("measure", target="q", basis=PHOTON_COMPUTATIONAL, bit="k"),
        ))
    got = _assert_same_walk(program, QiParams(cycles=1, theta_rule=PI_OVER_2N))
    keys = [dict(r[4]) for r in got]
    assert [r[5] for r in got] == [False, False, True]
    assert keys[2] == {"a": 2}  # the exploded particle, after both a = 0 and a = 1
    assert all(k["c"] == 1 for k in keys[:2])
    assert len(_assert_same_walk(program, PARAMS["n3"])) == 5


def test_batches_stay_within_the_amplitude_cap(monkeypatch):
    # a 16-level register stays live while five photons are prepared, H'd
    # and measured in turn, and is measured at the end: up to 16 branches of
    # 64 amplitudes reach a photon_h, which a cap of 256 splits into batches
    # of 4
    monkeypatch.setattr(circuits, "MAX_AMPLITUDES", 256)
    seen = []  # (batch, amplitudes) of each state photon_h receives
    photon_h = gates.photon_h

    def observed(state, name):
        seen.append((state.batch or 1, state.amps.size))
        return photon_h(state, name)

    monkeypatch.setattr(gates, "photon_h", observed)
    got = _assert_same_walk(register_program(), PARAMS["exact"])
    assert len(got) == 2 ** 5 * 15
    # one photon_h per segment: the root's on one branch, then those of 2,
    # 4, 8 and 16 branches in batches of at most 4; the one-branch walk's
    # 31 act on one branch each
    assert Counter(seen) == {(1, 64): 1 + 31, (2, 128): 1, (4, 256): 1 + 2 + 4}


@pytest.mark.parametrize("gate", ["cx", "cz"])
@pytest.mark.parametrize("values", [[1, 0, 1], [0, 1, 0], [1, 1, 1], [0, 0, 0]])
def test_corrections_act_on_each_branch_as_alone(gate, values):
    rng = np.random.default_rng(7)
    layout = (photon("p"), particle("m"))
    alone = []
    for _ in values:
        amps = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        alone.append(StateVector(layout, amps / np.linalg.norm(amps)))
    stacked = engine_state.stack_branches(alone)
    before = stacked.amps.tobytes()
    for target in ("p", "m"):
        got = gates.classically_controlled(stacked, values, gate, target)
        assert got.batch == len(values)
        for b, (value, branch) in enumerate(zip(values, alone)):
            want = gates.classically_controlled(branch, value, gate, target).amps
            assert got.branch(b).amps.tobytes() == want.tobytes()
    assert stacked.amps.tobytes() == before


# ---------------------------------------------------------------------------
# the names the bench tracer rebinds


def _rebind(monkeypatch, name, original, calls):
    # wrap the function in every attribute of every zenosim module that
    # holds it, as `bench/spans.py` does
    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "zenosim" or mod_name.startswith("zenosim."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)


@pytest.mark.parametrize("walk", ["all-branches", "sampled"])
def test_walks_reach_the_names_the_tracer_rebinds(monkeypatch, walk):
    # every call of these functions must go through a module attribute the
    # tracer rebinds: the calls its wrappers count equal the calls of the
    # functions' own code, which a profile hook counts however they are
    # reached
    targets = {"branch_all": engine_state.branch_all, "apply_local": engine_state.apply_local,
               "photon_h": gates.photon_h, "qi_run": interrogation.qi_run}
    rebound, executed = Counter(), Counter()
    for name, fn in targets.items():
        _rebind(monkeypatch, name, fn, rebound)
    codes = {fn.__code__: name for name, fn in targets.items()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            executed[codes[frame.f_code]] += 1

    program = DEMOS["cnot-half-memory-keep-control"]()
    sys.setprofile(profile)
    try:
        if walk == "all-branches":
            run_all_branches(program, QiParams(cycles=5))
        else:
            run(program, QiParams(cycles=5), np.random.default_rng(1))
    finally:
        sys.setprofile(None)
    assert set(rebound) == set(targets)
    assert rebound == executed
