"""Program validation, execution, and the shipped circuit builders."""

import copy
import hashlib
import math
import pickle
import re
from collections import Counter

import numpy as np
import pytest

from zenosim import circuits, gates, oracle, state as engine_state
from zenosim.circuits import (
    CNOT_FAMILIES,
    DEMOS,
    CircuitProgram,
    Instruction,
    bell_generator,
    cnot_circuit,
    configurable_gate,
    demo_programs,
    gate_census,
    memory_roundtrip,
    run,
    run_all_branches,
    w_state_generator,
)
from zenosim.gates import ImperfectionProfile
from zenosim.interrogation import PI_OVER_2N, QiParams, effective_map, qicz, qicz_multi
from zenosim.state import (
    PH_ONE_H,
    PARTICLE_COMPUTATIONAL,
    PARTICLE_PM,
    PHOTON_COMPUTATIONAL,
    QUDIT_POSITION,
    StateVector,
    SubsystemSpec,
    branch_all,
    fidelity,
    new_state,
    norm_sq,
    particle,
    photon,
)

from helpers import FAILURE_LEAVES, reorder
from test_sampling import UNEVEN
from test_walk import _rebind

IDEAL = QiParams(cycles=None)


def _ins(op, **args):
    return Instruction(op, args)


# --- static validation -------------------------------------------------------

def test_unknown_op_rejected():
    with pytest.raises(ValueError, match="unknown op"):
        Instruction("teleport", {})


@pytest.mark.parametrize("name, kind, dim, message", [
    ("w", "widget", 2, "unknown kind 'widget'"),
    ("b", "particle", 1,
     "particle 'b' needs an integer number of positions, at least 2, got 0"),
    ("p", "photon", 3, "photon 'p' has a level count of 3; a photon has 4"),
    ("p", "photon", 4.0, "photon 'p' has a level count of 4.0; a photon has 4"),
], ids=["widget", "zero-position-particle", "three-level-photon", "float-level-count"])
def test_subsystem_that_no_constructor_builds_is_rejected(name, kind, dim, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SubsystemSpec(name, kind, dim)


_BASIS_MISFITS = [
    (photon("x"), PARTICLE_PM, "particle_pm needs a 2-position particle, but 'x' is a photon"),
    (photon("x"), PARTICLE_COMPUTATIONAL,
     "particle_computational needs a particle, but 'x' is a photon"),
    (photon("x"), QUDIT_POSITION, "qudit_position needs a particle, but 'x' is a photon"),
    (particle("x", positions=3), PARTICLE_PM,
     "particle_pm needs a 2-position particle, but 'x' is a 3-position particle"),
    (particle("x"), PHOTON_COMPUTATIONAL,
     "photon_computational needs a photon, but 'x' is a 2-position particle"),
]


def _measure_misfit(spec, basis):
    return CircuitProgram((spec,), ("b",), (
        _ins("prepare", target="x", level=0),
        _ins("measure", target="x", basis=basis, bit="b"),
    ))


# a subsystem of each kind, every one prepared, and a 0/1 bit "m" written,
# so the instruction at index 6 fails on its subsystem's kind alone
_KIND_SETUP = (
    _ins("prepare", target="s", level=1),
    _ins("measure", target="s", basis=PHOTON_COMPUTATIONAL, bit="m"),
    _ins("prepare", target="p", level=0),
    _ins("prepare", target="r", level=0),
    _ins("prepare", target="b", level=0),
    _ins("prepare", target="q", level=0),
)
_KIND_SUBSYSTEMS = (photon("s"), photon("p"), photon("r"), particle("b"),
                    particle("q", positions=3))


_GATE_MISFITS = [
    ("photon_h", {"target": "b"}, "target", "a photon", "a 2-position particle"),
    ("photon_x", {"target": "q"}, "target", "a photon", "a 3-position particle"),
    ("photon_z", {"target": "b"}, "target", "a photon", "a 2-position particle"),
    ("particle_h", {"target": "p"}, "target", "a particle", "a photon"),
    ("particle_x", {"target": "q"}, "target", "a 2-position particle",
     "a 3-position particle"),
    ("particle_z", {"target": "p"}, "target", "a 2-position particle", "a photon"),
    ("cx", {"bit": "m", "target": "q"}, "target",
     "a photon or a 2-position particle", "a 3-position particle"),
    ("cz", {"bit": "m", "target": "q"}, "target",
     "a photon or a 2-position particle", "a 3-position particle"),
    ("cphase", {"key": "m", "target": "b", "coeff": 1.0}, "target", "a photon",
     "a 2-position particle"),
    ("qicz", {"photon": "b", "particle": "b"}, "photon", "a photon",
     "a 2-position particle"),
    ("qicz", {"photon": "p", "particle": "q"}, "particle", "a 2-position particle",
     "a 3-position particle"),
    ("qicz", {"photon": "b", "particle": "q"}, "photon", "a photon",
     "a 2-position particle"),
    ("qicz_multi", {"photon": "p", "particles": ["b", "r"]}, "particles",
     "a particle", "a photon"),
]


# the engine call an instruction makes, for the ops that do not call the
# gates function of their own name on their target
_ENGINE_CALLS = {
    "cx": lambda state, a: gates.classically_controlled(state, 1, "cx", a["target"]),
    "cz": lambda state, a: gates.classically_controlled(state, 1, "cz", a["target"]),
    "cphase": lambda state, a: gates.classically_controlled_phase(
        state, 1, a["target"], a["coeff"]),
    "qicz": lambda state, a: qicz(state, a["photon"], a["particle"], IDEAL),
    "qicz_multi": lambda state, a: qicz_multi(state, a["photon"], a["particles"], IDEAL),
}


@pytest.mark.parametrize("op,args,bad,needs,what", _GATE_MISFITS)
def test_engine_call_on_a_misfit_ends_as_the_validator_does(op, args, bad, needs, what):
    # a library call, on a state that holds the misfit subsystem, raises
    # the validator's "needs ..., but ... is ..." tail
    name = args[bad][-1] if bad == "particles" else args[bad]
    state = new_state(list(_KIND_SUBSYSTEMS), [0] * len(_KIND_SUBSYSTEMS))
    call = _ENGINE_CALLS.get(op, lambda state, a: getattr(gates, op)(state, a["target"]))
    with pytest.raises(ValueError, match=rf" needs {needs}, but '{name}' is {what}$"):
        call(state, args)


@pytest.mark.parametrize("spec,basis,message", _BASIS_MISFITS)
def test_measurement_of_a_misfit_raises_as_the_validator_does(spec, basis, message):
    with pytest.raises(ValueError) as loaded:
        _measure_misfit(spec, basis)
    with pytest.raises(ValueError) as measured:
        branch_all(new_state([spec], [0]), "x", basis)
    assert str(measured.value) == message
    assert str(loaded.value) == f"instructions[1]: {message}"


@pytest.mark.parametrize("op,args", [
    ("cx", {"bit": "m", "target": "p"}), ("cx", {"bit": "m", "target": "b"}),
    ("cz", {"bit": "m", "target": "p"}), ("cz", {"bit": "m", "target": "b"}),
    ("particle_h", {"target": "q"}),
    ("qicz_multi", {"photon": "p", "particles": ["b", "q"]}),
])
def test_gate_subsystem_that_fits_is_accepted(op, args):
    CircuitProgram(_KIND_SUBSYSTEMS, ("m",), _KIND_SETUP + (_ins(op, **args),))


# qicz_multi lists that do not fit: the validator's message for each (an
# entry of test_cli.REJECTED each) is the engine's own
_QICZ_MULTI_MISFITS = {
    "listed-twice": ({"particles": ["b", "b"]}, "particle 'b' listed twice"),
    "listed-twice-among-three": ({"particles": ["b", "q", "b"], "blocking": [0, 1, 0]},
                                 "particle 'b' listed twice"),
    "one-blocking-entry-for-two": ({"particles": ["b", "q"], "blocking": [0]},
                                   "one blocking entry per particle required"),
    "two-blocking-entries-for-one": ({"particles": ["b"], "blocking": [0, 1]},
                                     "one blocking entry per particle required"),
    "blocking-position-5": ({"particles": ["b"], "blocking": [5]},
                            "blocking position 5 invalid for 'b' (positions 0..1; the exploded "
                            "level cannot block)"),
    "blocking-position-3-in-a-list": ({"particles": ["b", "q"], "blocking": [0, [1, 3]]},
                                      "blocking position 3 invalid for 'q' (positions 0..2; the "
                                      "exploded level cannot block)"),
    "blocking-position-negative": ({"particles": ["q"], "blocking": [-1]},
                                   "blocking position -1 invalid for 'q' (positions 0..2; the "
                                   "exploded level cannot block)"),
    "blocking-position-twice": ({"particles": ["b"], "blocking": [[0, 0]]},
                                "duplicate blocking position for 'b'"),
}


@pytest.mark.parametrize("name", sorted(_QICZ_MULTI_MISFITS))
def test_engine_call_on_a_qicz_multi_misfit_ends_as_the_validator_does(name):
    args, message = _QICZ_MULTI_MISFITS[name]
    names, blocking = args["particles"], args.get("blocking")
    state = new_state([photon("p"), particle("b"), particle("q", positions=3)],
                      [PH_ONE_H, 0, 0])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        qicz_multi(state, "p", names, IDEAL, blocking=blocking)
    # effective_map names its particles b0, b1, ... in list order, so it
    # cannot list one twice
    if len(set(names)) == len(names):
        renamed = re.sub(r"'(\w)'", lambda m: f"'b{names.index(m[1])}'", message)
        positions = [state.spec(name).positions() for name in names]
        with pytest.raises(ValueError, match=f"^{re.escape(renamed)}$"):
            effective_map(QiParams(cycles=5), len(names), positions, blocking)


@pytest.mark.parametrize("args", [
    {"particles": ["b", "q"], "blocking": [1, [0, 2]]},
    {"particles": ["q", "b"], "blocking": [[], 0]},
    {"particles": ["q"], "blocking": None},
])
def test_qicz_multi_lists_that_fit_are_accepted(args):
    instr = _ins("qicz_multi", photon="p", **args)
    program = CircuitProgram(_KIND_SUBSYSTEMS, ("m",), _KIND_SETUP + (instr,))
    # what the validator accepts, the engine runs
    assert run_all_branches(program, IDEAL)


def _keyed_phase(coeff, basis=QUDIT_POSITION):
    # bit k reads 0, 1 or 2 in the qudit basis, 0 or 1 in the pm basis
    measured = "q" if basis == QUDIT_POSITION else "b"
    return CircuitProgram(
        (particle("q", positions=3), particle("b"), photon("p")), ("k",), (
            _ins("prepare", target="q", uniform=True),
            _ins("prepare", target="b", pm="+"),
            _ins("measure", target=measured, basis=basis, bit="k"),
            _ins("prepare", target="p", level=1),
            _ins("cphase", key="k", target="p", coeff=coeff),
        ))


@pytest.mark.parametrize("coeff", [1e308, -1e308, 10 ** 308, 1.7e308],
                         ids=["1e308", "-1e308", "int", "1.7e308"])
def test_cphase_whose_phase_fits_its_bit_runs_finite(coeff):
    # 2 * coeff overflows on a bit that reads 2 (test_cli.REJECTED's
    # phase-overflow entries); the same coefficient stays finite on a bit
    # that reads at most 1, and half of it on the qudit bit
    for program in (_keyed_phase(coeff, PARTICLE_PM), _keyed_phase(coeff / 2)):
        for res in run_all_branches(program, IDEAL):
            assert np.isfinite(res.final_state.amps).all()


def test_instruction_needs_its_arguments():
    with pytest.raises(ValueError, match="photon_h needs argument 'target'"):
        Instruction("photon_h", {})
    with pytest.raises(ValueError, match="needs argument 'out'"):
        Instruction("xor", {"a": "x", "b": "y"})


@pytest.mark.parametrize("value", [np.float32("inf"), np.float32("-inf"), np.float32("nan")],
                         ids=["inf", "-inf", "nan"])
def test_instruction_refuses_a_float32_that_is_not_finite(value):
    # a number is finite at every float width, so construction refuses it
    # before any bind sees it
    shown = re.escape(repr(value))
    with pytest.raises(ValueError,
                       match=rf"^cphase argument 'coeff' must be a number, got {shown}$"):
        Instruction("cphase", {"key": "m", "target": "p", "coeff": value})
    with pytest.raises(ValueError, match=r"^prepare argument 'state' must be a list of "
                                         rf"\[re, im\] pairs, got \[\[{shown}, 0\]\]$"):
        Instruction("prepare", {"target": "p", "state": [[value, 0]]})


@pytest.mark.parametrize("width", [np.float16, np.float32])
def test_instruction_takes_a_finite_float_of_any_width(width):
    Instruction("cphase", {"key": "m", "target": "p", "coeff": width(0.5)})
    Instruction("prepare", {"target": "p", "state": [[width(0.5), 0], [0, width(-0.5)]]})


def test_instruction_takes_only_the_names_its_row_lists():
    with pytest.raises(ValueError, match=r"^prepare takes no argument 'levle'$"):
        Instruction("prepare", {"target": "p", "levle": 1})
    with pytest.raises(ValueError, match=r"^qicz takes no argument 'blocking'$"):
        Instruction("qicz", {"photon": "p", "particle": "b", "blocking": [0]})
    # an optional name the row lists, and a false uniform, which selects no form
    CircuitProgram((particle("b"),), (), (
        _ins("prepare", target="b", level=1, uniform=False),))


def _qudit_then(*tail):
    """A 3-position particle measured in the position basis into bit m."""
    return CircuitProgram((particle("q", positions=3), particle("r", positions=2),
                           photon("p")), ("m", "n", "z"), (
        _ins("prepare", target="q", uniform=True),
        _ins("measure", target="q", basis=QUDIT_POSITION, bit="m"),
        _ins("prepare", target="r", pm="+"),
        _ins("measure", target="r", basis=QUDIT_POSITION, bit="n"),
        _ins("prepare", target="p", level=1),
        *tail,
    ))


def test_binary_and_integer_controls_accepted():
    _qudit_then(_ins("cx", bit="n", target="p"),
                _ins("xor", a="n", b="n", out="z"),
                _ins("cz", bit="z", target="p"),
                _ins("cphase", key="m", target="p", coeff=0.5))


def test_configurable_gate_rejects_double_wiring():
    with pytest.raises(ValueError, match=r"^instructions\[2\]: particle 'b' listed twice$"):
        configurable_gate(
            photons=[("p", (0, 1))],
            particles=[("b", 2, (1, 0, 0))],
            interferometers=[("p", [("b", [0]), ("b", [1])])],
        )



def test_configurable_gate_accepts_numpy_integer_blocking():
    wiring = dict(photons=[("p", (0, 1))], particles=[("b", 2, (1, 0, 0)), ("c", 2, (0, 1, 0))])
    got = configurable_gate(**wiring, interferometers=[
        ("p", [("b", np.int64(0)), ("c", [np.int32(1), np.int64(0)])])])
    want = configurable_gate(**wiring, interferometers=[("p", [("b", 0), ("c", [1, 0])])])
    assert got == want
    assert type(got.instructions[-1].args["blocking"][0][0]) is int


def test_spec_of_an_undeclared_name_is_a_key_error():
    with pytest.raises(KeyError, match="undeclared subsystem 'x'"):
        bell_generator().spec("x")


def test_cnot_circuit_rejects_an_unknown_family():
    with pytest.raises(ValueError, match="^unknown family 'nope'$"):
        cnot_circuit("nope")


def test_w_generator_needs_two_photons():
    with pytest.raises(ValueError):
        w_state_generator(1)


@pytest.mark.parametrize("m", [3.0, True, "3"], ids=repr)
def test_w_generator_needs_an_integer_photon_count(m):
    with pytest.raises(ValueError) as err:
        w_state_generator(m)
    assert str(err.value) == f"the photon count must be an integer, got {m!r}"


# --- execution ---------------------------------------------------------------

def test_bell_branches_are_orthogonal_bell_states():
    results = run_all_branches(bell_generator(), IDEAL)
    assert len(results) == 2
    by_bit = {r.classical["m"]: r for r in results}
    for r in results:
        assert r.branch_weight == pytest.approx(0.5, abs=1e-12)
        assert not r.failed
    phi = np.zeros((4, 4), dtype=np.complex128)
    phi[0, 0] = phi[1, 1] = 1 / np.sqrt(2)
    psi = np.zeros((4, 4), dtype=np.complex128)
    psi[0, 1] = psi[1, 0] = 1 / np.sqrt(2)
    layout = by_bit[0].final_state.layout
    assert fidelity(by_bit[0].final_state, type(by_bit[0].final_state)(layout, phi)) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(by_bit[1].final_state, type(by_bit[1].final_state)(layout, psi)) == pytest.approx(1.0, abs=1e-12)
    overlap = np.vdot(by_bit[0].final_state.amps, by_bit[1].final_state.amps)
    assert abs(overlap) < 1e-12


def test_bell_single_photon_is_maximally_mixed():
    results = run_all_branches(bell_generator(), IDEAL)
    amps = results[0].final_state.amps
    rho = np.einsum("ab,cb->ac", amps, amps.conj())
    eig = np.sort(np.linalg.eigvalsh(rho))[::-1]
    assert eig[0] == pytest.approx(0.5, abs=1e-10)
    assert eig[1] == pytest.approx(0.5, abs=1e-10)


def test_memory_roundtrip_identity_and_bitflip():
    psi = np.array([0.6, 0.8j])
    for sign, expected in (("+", psi), ("-", psi[::-1])):
        results = run_all_branches(memory_roundtrip(psi=psi, sign=sign), IDEAL)
        assert len(results) == 4
        target = new_state([photon("pout")], [0])
        vec = np.zeros(4, dtype=np.complex128)
        vec[:2] = expected
        target = type(target)(target.layout, vec)
        for r in results:
            assert r.branch_weight == pytest.approx(0.25, abs=1e-12)
            assert fidelity(r.final_state, target) == pytest.approx(1.0, abs=1e-12)


def test_w_state_branches():
    m = 3
    results = run_all_branches(w_state_generator(m), IDEAL)
    assert len(results) == m
    expected = np.zeros((4,) * m, dtype=np.complex128)
    for i in range(m):
        expected[tuple(1 if j == i else 0 for j in range(m))] = 1 / np.sqrt(m)
    for r in results:
        assert r.branch_weight == pytest.approx(1 / m, abs=1e-12)
        state = reorder(r.final_state, [f"w{i}" for i in range(m)])
        target = type(state)(state.layout, expected)
        assert fidelity(state, target) == pytest.approx(1.0, abs=1e-12)


def test_w_state_is_permutation_invariant():
    results = run_all_branches(w_state_generator(3), IDEAL)
    state = reorder(results[0].final_state, ["w0", "w1", "w2"])
    swapped = reorder(results[0].final_state, ["w1", "w0", "w2"])
    assert np.allclose(state.amps, swapped.amps, atol=1e-12)


def test_gate_census_counts():
    census = gate_census(bell_generator())
    assert census == {"h_optical": 2, "qicz": 2, "cc": 0, "h_particle": 0,
                      "detectors": 0, "particle_measurements": 1}
    census = gate_census(cnot_circuit("memory"))
    assert (census["h_optical"], census["qicz"], census["cc"],
            census["h_particle"], census["detectors"]) == (4, 5, 4, 0, 2)


def test_branch_weights_sum_to_one_ideal():
    for name, program in demo_programs().items():
        results = run_all_branches(program, IDEAL)
        total = sum(r.branch_weight for r in results)
        assert total == pytest.approx(1.0, abs=1e-9), name


def test_finite_cycles_success_bound():
    params = QiParams(cycles=100)
    program = bell_generator()
    results = run_all_branches(program, params)
    success = sum(r.success_probability for r in results if not r.failed)
    n_qicz = gate_census(program)["qicz"]
    assert success >= 1.0 - n_qicz * 1.05 * np.pi ** 2 / 100


@pytest.mark.parametrize("params", [
    IDEAL, QiParams(cycles=5, absorb_prob=0.9, cycle_loss=1e-3)],
    ids=["ideal", "finite"])
@pytest.mark.parametrize("seed", [0, 11, 2024])
@pytest.mark.parametrize("name", sorted(demo_programs()))
def test_run_matches_an_enumerated_branch(name, seed, params):
    program = demo_programs()[name]
    branches = run_all_branches(program, params)
    sampled = run(program, params, rng=np.random.default_rng(seed))
    match = [b for b in branches
             if (b.classical, b.failed) == (sampled.classical, sampled.failed)]
    assert len(match) == 1
    assert sampled.branch_weight == pytest.approx(match[0].branch_weight, abs=1e-12)
    assert sampled.final_state.layout == match[0].final_state.layout
    assert np.allclose(sampled.final_state.amps, match[0].final_state.amps,
                       rtol=0, atol=1e-12)


def test_run_is_deterministic_for_fixed_seed():
    plus = (1 / np.sqrt(2), 1 / np.sqrt(2))
    program = cnot_circuit("direct-cx", control=plus, target=(1, 0))
    a = run(program, IDEAL, rng=np.random.default_rng(5))
    b = run(program, IDEAL, rng=np.random.default_rng(5))
    assert a.classical == b.classical
    assert np.array_equal(a.final_state.amps, b.final_state.amps)


def test_profile_failure_heralds_run():
    program = bell_generator()
    result = run(program, IDEAL, rng=np.random.default_rng(0),
                 profile=ImperfectionProfile(p=0.0))
    assert result.failed
    assert result.success_probability == 0.0
    assert norm_sq(result.final_state) == 0.0


def test_profile_perfect_matches_unprofiled():
    program = bell_generator()
    plain = run(program, IDEAL, rng=np.random.default_rng(3))
    wrapped = run(program, IDEAL, rng=np.random.default_rng(3),
                  profile=ImperfectionProfile())
    assert not wrapped.failed
    assert plain.classical == wrapped.classical


def test_demo_registry():
    demos = demo_programs()
    expected = {"bell", "qicz", "toffoli", "wstate-2", "wstate-3", "wstate-4",
                "memory"} | {f"cnot-{f}" for f in CNOT_FAMILIES}
    assert set(demos) == expected
    for program in demos.values():
        assert isinstance(program, CircuitProgram)


def test_demo_registry_builds_each_demo_alone():
    demos = demo_programs()
    assert list(demos) == list(DEMOS)
    for name, build in DEMOS.items():
        assert build() == demos[name]
        assert build() is not build()


# --- the outcome tree run keeps on a program ---------------------------------

FINITE = QiParams(cycles=7, absorb_prob=0.9, cycle_loss=1e-3)
LOSSY = ImperfectionProfile(p=0.9, q=0.85, r=0.9, s=0.8, eta=0.9)


def _record(result):
    return (result.failed, sorted(result.classical.items()), result.success_probability,
            result.branch_weight, result.final_state.layout,
            result.final_state.amps.tobytes())


def _runs(build, schedule, seed, profile, fresh):
    """Records of `run` over a schedule of params, all on one program object
    or each on a newly built one, and the generator state afterwards."""
    rng = np.random.default_rng(seed)
    program = build()
    records = [_record(run(build() if fresh else program, params, rng, profile))
               for params in schedule]
    return records, rng.bit_generator.state


@pytest.mark.parametrize("profile", [None, LOSSY], ids=["plain", "profile"])
@pytest.mark.parametrize("params", [IDEAL, FINITE], ids=["ideal", "finite"])
@pytest.mark.parametrize("name", sorted(DEMOS))
def test_memoized_runs_equal_fresh_runs(name, params, profile):
    build = DEMOS[name]
    kept = _runs(build, [params] * 30, 17, profile, fresh=False)
    assert kept == _runs(build, [params] * 30, 17, profile, fresh=True)
    if profile is not None:
        # every demo has a charged instruction, so seed 17 reaches failures
        assert any(failed for failed, *_ in kept[0])


# sha256 of every record of the schedule below and the generator state after
# it, recorded with the summing-loop draw `helpers.reference_sample_branch`
# keeps; it pins the sampled results themselves, which the comparison of kept
# and fresh runs above cannot, since both sides run the same draw
SAMPLED_DIGEST = "8c16ee6b87f77c8ae20ca09bc50c9e7887c0995303913264e103ff7ffbcd0134"


def test_sampled_runs_are_pinned():
    builds = [DEMOS[name] for name in sorted(DEMOS)]
    builds += [lambda family=family: cnot_circuit(family) for family in CNOT_FAMILIES]
    rng = np.random.default_rng(977)
    digest = hashlib.sha256()
    for build in builds:
        for params in (IDEAL, FINITE):
            for profile in (None, LOSSY):
                program = build()
                for _ in range(40):
                    digest.update(repr(_record(run(program, params, rng, profile))).encode())
    digest.update(repr(rng.bit_generator.state).encode())
    assert digest.hexdigest() == SAMPLED_DIGEST


def test_equal_params_reuse_the_tree():
    program = bell_generator()
    run(program, IDEAL)
    tree = program._outcome_tree
    run(program, QiParams(cycles=None))
    assert program._outcome_tree is tree


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_params_switch_replaces_the_tree(name):
    schedule = [IDEAL] * 4 + [FINITE] * 4 + [IDEAL] * 4 + [FINITE, IDEAL] * 2
    for profile in (None, LOSSY):
        assert (_runs(DEMOS[name], schedule, 5, profile, fresh=False)
                == _runs(DEMOS[name], schedule, 5, profile, fresh=True))


def _end(result) -> str:
    """Where a run ended: a failed draw (its zeroed state), a failure
    outcome, or the end of the program."""
    if not result.failed:
        return "end"
    return "failure-outcome" if result.final_state.amps.any() else "failed-draw"


# (params, profile, programs) per case; the profile's draws fail, and
# `UNEVEN["failure"]`, which no params touch, ends one run in five at its
# failure outcome
_SPOIL_CASES = {
    "ideal": (IDEAL, None, DEMOS),
    "finite": (FINITE, None, DEMOS),
    "profile": (IDEAL, LOSSY, DEMOS),
    "failure-leaves": (FAILURE_LEAVES, LOSSY, {"cnot-memory": DEMOS["cnot-memory"],
                                               "uneven-failure": UNEVEN["failure"]}),
}


def _spoiled_runs(program, params, profile):
    """Records of 20 seeded runs on `program`, each result written over
    (its state and its record) once recorded; and where each run ended."""
    rng, records, ends = np.random.default_rng(1), [], set()
    for _ in range(20):
        # through the module, so that a mutant bound there is the one run
        result = circuits.run(program, params, rng, profile)
        records.append(_record(result))
        ends.add(_end(result))
        result.final_state.amps[...] = 0.5
        result.classical["spoiled"] = 1
    return records, ends


def assert_spoiled_results_leave_later_runs_alone(case: str) -> None:
    """The runs of `_spoiled_runs`, twice on one program: the second time
    along kept paths only, each end written over the first time; also a
    killer in `tests/test_mutants.py`."""
    params, profile, builds = _SPOIL_CASES[case]
    ends = set()
    for name, build in builds.items():
        program = build()
        records, reached = _spoiled_runs(program, params, profile)
        assert _spoiled_runs(program, params, profile)[0] == records, name
        ends |= reached
    assert ends == {"end"} | ({"failed-draw"} if profile else set()) | (
        {"failure-outcome"} if case == "failure-leaves" else set())


@pytest.mark.parametrize("case", sorted(_SPOIL_CASES))
def test_mutating_a_result_leaves_later_runs_alone(case):
    assert_spoiled_results_leave_later_runs_alone(case)


def test_kept_ends_build_no_state(monkeypatch):
    # once the tree holds a run's path, the run copies its end and builds
    # no state, unless a draw fails: then it builds its zeroed state alone
    built = []
    post_init = StateVector.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(StateVector, "__post_init__", counted)
    ends = set()
    for build, params in ((DEMOS["cnot-memory"], FAILURE_LEAVES), (UNEVEN["failure"], IDEAL)):
        program = build()
        for kept in (False, True):  # the first pass builds the tree
            rng = np.random.default_rng(6)
            for _ in range(20):
                built.clear()
                result = run(program, params, rng, LOSSY)
                if not kept:
                    continue
                ends.add(_end(result))
                if _end(result) == "failed-draw":
                    assert len(built) == 1 and built[0] is result.final_state
                else:
                    assert built == []
    assert ends == {"end", "failure-outcome", "failed-draw"}


def test_failed_draw_records_the_bits_written_before_it():
    program = CircuitProgram((photon("p"), photon("q")), ("m", "z"), (
        _ins("prepare", target="p", level=1),
        _ins("measure", target="p", basis=PHOTON_COMPUTATIONAL, bit="m"),
        _ins("prepare", target="q", level=0),
        _ins("photon_h", target="q"),
        _ins("xor", a="m", b="m", out="z"),
    ))
    for _ in range(2):  # the second run walks the kept tree
        result = run(program, IDEAL, np.random.default_rng(0),
                     profile=ImperfectionProfile(p=0.0))
        assert result.failed
        assert result.classical == {"m": 1}
        assert result.final_state.layout == (photon("q"),)


def _break_photon_x(monkeypatch, error):
    def broken(state, name):
        raise error("broken gate")

    monkeypatch.setattr(gates, "photon_x", broken)


def test_run_time_error_is_raised_where_the_walk_reaches_it(monkeypatch):
    # the validator accepts the program; the rebound gate raises when it acts
    _break_photon_x(monkeypatch, ValueError)
    program = CircuitProgram((photon("p"), photon("q")), (), (
        _ins("prepare", target="p", level=0),
        _ins("photon_h", target="p"),
        _ins("prepare", target="q", level=0),
        _ins("photon_x", target="q"),
    ))
    for _ in range(2):  # nothing is kept, so the second run walks afresh
        with pytest.raises(ValueError, match="broken gate"):
            run(program, IDEAL)
        # a failed draw in the broken stretch does not end the run first
        with pytest.raises(ValueError, match="broken gate"):
            run(program, IDEAL, profile=ImperfectionProfile(p=0.0))
        assert program._outcome_tree is None
    with pytest.raises(ValueError, match="broken gate"):
        run_all_branches(program, IDEAL)
    assert program._outcome_tree is None


def test_run_all_branches_keeps_no_tree():
    program = bell_generator()
    run_all_branches(program, IDEAL)
    assert program._outcome_tree is None
    run(program, IDEAL)
    tree = program._outcome_tree
    run_all_branches(program, FINITE)
    assert program._outcome_tree is tree


def test_run_all_branches_adds_nothing_to_the_program():
    # batch sizes and failure outcomes are worked out where the walk makes
    # them, so no walk leaves a memo on the program it walked
    for program in demo_programs().values():
        before = dict(vars(program))
        for params in (IDEAL, FINITE):
            run_all_branches(program, params)
        assert vars(program).keys() == before.keys()
        assert all(vars(program)[name] is value for name, value in before.items())


def test_run_time_error_of_any_type_is_raised_where_the_walk_reaches_it(monkeypatch):
    _break_photon_x(monkeypatch, RuntimeError)
    program = CircuitProgram((photon("p"),), (), (
        _ins("prepare", target="p", level=0),
        _ins("photon_h", target="p"),
        _ins("photon_x", target="p"),
    ))
    for _ in range(2):
        for profile in (ImperfectionProfile(p=0.0), None):
            with pytest.raises(RuntimeError, match="broken gate"):
                run(program, IDEAL, profile=profile)
        assert program._outcome_tree is None
    with pytest.raises(RuntimeError, match="broken gate"):
        run_all_branches(program, IDEAL)
    assert program._outcome_tree is None


def test_a_broken_stretch_after_a_measurement_is_never_kept(monkeypatch):
    # the root stretch runs and is kept; each outcome of the measurement
    # leads to the rebound gate, so every run raises there and the tree
    # keeps no child
    _break_photon_x(monkeypatch, ValueError)
    program = CircuitProgram((photon("p"), photon("q")), ("m",), (
        _ins("prepare", target="p", level=0),
        _ins("photon_h", target="p"),
        _ins("measure", target="p", basis=PHOTON_COMPUTATIONAL, bit="m"),
        _ins("prepare", target="q", level=0),
        _ins("photon_x", target="q"),
    ))
    rng = np.random.default_rng(2)
    for profile in (None, LOSSY, None, LOSSY):
        with pytest.raises(ValueError, match="broken gate"):
            run(program, IDEAL, rng, profile)
        tree = program._outcome_tree
        assert tree.root.children == {} and tree.nbytes == tree.root.nbytes()
    with pytest.raises(ValueError, match="broken gate"):
        run_all_branches(program, IDEAL)


def _coin_flips(n):
    """n photons, each measured out of (|0> + |1H>)/sqrt 2: 2^n outcome paths."""
    instructions = []
    for i in range(n):
        instructions += [
            _ins("prepare", target=f"p{i}", level=0),
            _ins("photon_h", target=f"p{i}"),
            _ins("measure", target=f"p{i}", basis=PHOTON_COMPUTATIONAL, bit=f"m{i}"),
        ]
    return CircuitProgram(tuple(photon(f"p{i}") for i in range(n)),
                          tuple(f"m{i}" for i in range(n)), tuple(instructions))


def _kept_segments(seg):
    return [seg] + [s for child in seg.children.values() for s in _kept_segments(child)]


@pytest.mark.parametrize("profile", [None, LOSSY], ids=["plain", "profile"])
def test_outcome_tree_stays_within_its_budget(monkeypatch, profile):
    budget = 40_000
    monkeypatch.setattr(circuits, "_TREE_BYTES", budget)
    build = lambda: _coin_flips(10)  # noqa: E731
    kept = _runs(build, [IDEAL] * 400, 3, profile, fresh=False)
    assert kept == _runs(build, [IDEAL] * 400, 3, profile, fresh=True)
    assert len({tuple(classical) for _, classical, *_ in kept[0]}) > 100
    # the same runs, then as many again along paths mostly past the budget
    program, rng = build(), np.random.default_rng(3)
    for _ in range(800):
        run(program, IDEAL, rng, profile)
    tree = program._outcome_tree
    segments = _kept_segments(tree.root)
    assert tree.nbytes == sum(seg.nbytes() for seg in segments)
    assert budget - 2 * circuits._ENTRY_BYTES < tree.nbytes <= budget
    assert len(segments) <= budget // circuits._ENTRY_BYTES
    # only leaves keep a state; a measurement keeps its branch list
    assert all((not seg.leaves) == (seg.measured is not None) for seg in segments)


def test_copies_and_pickles_leave_the_tree_behind():
    bell = bell_generator()
    expected = _record(run(bell, IDEAL, np.random.default_rng(4)))
    assert bell._outcome_tree is not None
    for other in (copy.copy(bell), copy.deepcopy(bell), pickle.loads(pickle.dumps(bell))):
        assert other == bell
        assert other._outcome_tree is None
    assert _record(run(copy.deepcopy(bell), IDEAL, np.random.default_rng(4))) == expected


def test_walks_read_the_plan_validation_built(monkeypatch):
    # validation binds each prepare's vector and each measure's failure label
    # once and the program keeps them; a walk of either kind, fresh or along
    # a kept tree, builds no vector and counts no outcomes, so the only
    # `basis_outcomes` calls are branch_all's own, one per call
    calls, prepared = Counter(), circuits._prepared
    for name, fn in (("_prepared", prepared), ("basis_outcomes", engine_state.basis_outcomes),
                     ("branch_all", engine_state.branch_all)):
        _rebind(monkeypatch, name, fn, calls)
    monkeypatch.setattr(circuits.OPS["prepare"], "bind", circuits._prepared)
    walks = {"run_all_branches": lambda program: run_all_branches(program, QiParams(cycles=17)),
             "run": lambda program: [run(program, IDEAL, np.random.default_rng(seed))
                                     for seed in range(3)]}
    for name, build in sorted(DEMOS.items()):
        program = build()
        prepares = [(i.args, bound) for i, bound in zip(program.instructions, program._plan)
                    if i.op == "prepare"]
        assert calls["_prepared"] == len(prepares), name
        for args, (spec, vec) in prepares:
            want_spec, want = prepared(args, program, {})
            assert spec == want_spec and vec.tobytes() == want.tobytes()
            assert not vec.flags.writeable
        for walk, go in walks.items():
            calls.clear()
            go(program)
            assert calls["_prepared"] == 0, (name, walk)
            assert calls["basis_outcomes"] == calls["branch_all"], (name, walk)
            assert bool(calls["branch_all"]) == any(
                i.op == "measure" for i in program.instructions), (name, walk)
        if any(i.op == "measure" for i in program.instructions):
            continue
        # the walk appends the plan's vector as it is: a vector halved after
        # validation halves every leaf of a program that measures nothing,
        # and nothing raises
        halved = build()
        calls.clear()
        first = next(k for k, i in enumerate(halved.instructions) if i.op == "prepare")
        spec, vec = halved._plan[first]
        object.__setattr__(halved, "_plan", halved._plan[:first] + (
            (spec, vec * 0.5),) + halved._plan[first + 1:])
        for walk, go in walks.items():
            got, want = go(halved), go(program)
            assert len(got) == len(want), (name, walk)
            for leaf, whole in zip(got, want):
                assert leaf.final_state.amps.tobytes() == (
                    whole.final_state.amps * 0.5).tobytes(), (name, walk)


def _rescanned_batches(program: CircuitProgram) -> dict[int, int]:
    """Each measure's batch size as `run_all_branches` once found it after
    every measurement: one branch's state there, times the levels of every
    subsystem prepared up to the next measurement, and the instructions
    run there."""
    live, batches = {}, {}
    for pos, instr in enumerate(program.instructions):
        target = instr.args.get("target")
        if instr.op == "prepare":
            live[target] = program.spec(target).dim
        elif instr.op == "measure":
            del live[target]
            peak, steps = math.prod(live.values()), 0
            for later in program.instructions[pos + 1:]:
                if later.op == "measure":
                    break
                if later.op == "prepare":
                    peak *= program.spec(later.args["target"]).dim
                steps += 1
            batches[pos] = max(1, circuits.MAX_AMPLITUDES // peak) if steps >= 2 else 1
    return batches


def assert_measures_bind_their_labels_and_batches(program: CircuitProgram) -> None:
    """Each measure's plan entry is its basis's failure label, the last
    outcome's, and the batch size the walk's rescan found."""
    batches = {}
    for pos, (instr, bound) in enumerate(zip(program.instructions, program._plan)):
        if instr.op == "measure":
            spec = program.spec(instr.args["target"])
            assert bound[0] == engine_state.basis_outcomes(spec, instr.args["basis"])[-1][0]
            batches[pos] = bound[1]
    assert batches == _rescanned_batches(program)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_measures_bind_their_labels_and_batches(name):
    assert_measures_bind_their_labels_and_batches(DEMOS[name]())


def _plan_record(program: CircuitProgram) -> list:
    return [(bound[0], bound[1].tobytes()) if isinstance(bound, tuple)
            and isinstance(bound[1], np.ndarray) else bound for bound in program._plan]


def test_copied_and_pickled_programs_walk_to_the_same_bits():
    params = QiParams(cycles=17)
    for name, build in sorted(DEMOS.items()):
        program = build()
        want = [_record(r) for r in run_all_branches(program, params)]
        sampled = _record(run(program, IDEAL, np.random.default_rng(4)))
        for other in (copy.copy(program), copy.deepcopy(program),
                      pickle.loads(pickle.dumps(program))):
            assert _plan_record(other) == _plan_record(program), name
            assert [_record(r) for r in run_all_branches(other, params)] == want, name
            assert _record(run(other, IDEAL, np.random.default_rng(4))) == sampled, name


def test_a_measurement_that_finds_no_weight_ends_the_run_failed():
    # a photon on |1H> meets a particle on its blocking position: one cycle
    # of the pi/2N rule turns it wholly to |1V>, which the absorber takes, so
    # the measurement after the interrogation finds no weight at all
    program = CircuitProgram((photon("p"), particle("b")), ("m",), (
        _ins("prepare", target="p", level=1),
        _ins("prepare", target="b", level=0),
        _ins("qicz", photon="p", particle="b"),
        _ins("measure", target="p", basis=PHOTON_COMPUTATIONAL, bit="m"),
    ))
    absorbed = QiParams(cycles=1, theta_rule=PI_OVER_2N, absorb_prob=1.0)
    for profile, draws in ((None, 0), (ImperfectionProfile(), 2)):
        for _ in range(2):  # a fresh tree, then the kept one
            rng, expected = np.random.default_rng(5), np.random.default_rng(5)
            result = run(program, absorbed, rng, profile)
            assert result.failed and result.success_probability == 0.0
            assert result.branch_weight == 1.0 and result.classical == {}
            assert result.final_state.layout == (photon("p"), particle("b"))
            assert not result.final_state.amps.any()
            # one uniform per charged instruction (the qicz and the photon
            # detection) and none for the outcome
            for _ in range(draws):
                expected.random()
            assert rng.bit_generator.state == expected.bit_generator.state
    assert run_all_branches(program, absorbed) == []
    assert oracle.brute_force_run(program, absorbed).leaves == []
    assert oracle.compare(program, absorbed) == 0.0


def test_a_measured_subsystem_leaves_the_state_the_engine_bounds():
    # three 200-position particles, prepared together, make more amplitudes
    # than the engine allows (test_cli.REJECTED's state-past-the-amplitude-cap);
    # measuring one first releases its share of the live state
    big = [particle(f"b{i}", positions=200) for i in range(3)]
    prepares = tuple(_ins("prepare", target=s.name) for s in big)
    CircuitProgram(tuple(big), ("m",), prepares[:2] + (
        _ins("measure", target="b0", basis=QUDIT_POSITION, bit="m"),) + prepares[2:])


def test_prepared_norms_are_multiplied_up_to_the_state_tolerance():
    # norm^2 1 + 0.9e-12: one such vector is within the prepare tolerance,
    # and two multiply past it (test_cli.REJECTED's norm-product); a kept
    # measurement branch is renormalized, so the product starts again
    slack = [[1.0000000000004499, 0.0]]
    specs = (photon("p"), photon("q"))
    CircuitProgram(specs[:1], (), (_ins("prepare", target="p", state=slack),))
    program = CircuitProgram(specs, ("a",), (
        _ins("prepare", target="p", state=slack),
        _ins("measure", target="p", basis=PHOTON_COMPUTATIONAL, bit="a"),
        _ins("prepare", target="q", state=slack)))
    for params in (IDEAL, QiParams(cycles=3)):
        assert [r.classical for r in run_all_branches(program, params)] == [{"a": 0}]
        assert run(program, params).classical == {"a": 0}


def test_every_demo_and_cnot_input_loads():
    demo_programs()
    uniform = np.array([1, 1]) / np.sqrt(2)
    for family in CNOT_FAMILIES:
        for control in ((1, 0), (0, 1), uniform):
            for target in ((1, 0), (0, 1), uniform):
                cnot_circuit(family, control=control, target=target)
