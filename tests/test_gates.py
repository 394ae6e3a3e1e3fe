"""Single-subsystem gates, preparation, classical corrections, imperfections."""

import itertools
from dataclasses import fields

import numpy as np
import pytest

from zenosim import gates
from zenosim.circuits import CENSUS_CLASSES, Instruction
from zenosim.gates import (
    CHARGED,
    _fourier,
    ImperfectionProfile,
    classically_controlled,
    classically_controlled_phase,
    particle_h,
    particle_x,
    particle_z,
    photon_h,
    photon_x,
    photon_z,
    prepare_particle_pm,
    prepare_particle_uniform,
)
from zenosim.state import (
    BLOCKED,
    OPEN,
    PH_ONE_H,
    PH_ONE_V,
    PH_SINK,
    PH_ZERO,
    StateVector,
    apply_local,
    new_state,
    norm_sq,
    particle,
    photon,
    stack_branches,
)

from helpers import assert_values_with_positive_zeros, signed_zero_amps


def test_photon_h_twice_is_identity():
    state = new_state([photon("p")], [PH_ZERO])
    out = photon_h(photon_h(state, "p"), "p")
    assert np.allclose(out.amps, state.amps, atol=1e-14)


def test_photon_gates_act_on_logical_block_only():
    # amplitude parked on |1V> and the sink must pass through untouched
    amps = np.array([0.5, 0.5, 0.5, 0.5], dtype=np.complex128)
    state = new_state([photon("p")], [PH_ZERO])
    state = type(state)(state.layout, amps)
    for gate in (photon_h, photon_x, photon_z):
        out = gate(state, "p")
        assert out.amps[PH_ONE_V] == pytest.approx(0.5)
        assert out.amps[PH_SINK] == pytest.approx(0.5)


def test_photon_x_swaps_vacuum_and_h():
    state = new_state([photon("p")], [PH_ONE_H])
    out = photon_x(state, "p")
    assert out.amps[PH_ZERO] == pytest.approx(1.0)
    assert out.amps[PH_ONE_H] == pytest.approx(0.0)


def test_photon_z_flips_h_sign():
    state = new_state([photon("p")], [PH_ONE_H])
    out = photon_z(state, "p")
    assert out.amps[PH_ONE_H] == pytest.approx(-1.0)


def test_particle_h_two_positions():
    state = new_state([particle("a")], [BLOCKED])
    out = particle_h(state, "a")
    assert out.amps[BLOCKED] == pytest.approx(1 / np.sqrt(2))
    assert out.amps[OPEN] == pytest.approx(1 / np.sqrt(2))


def test_particle_h_is_fourier_for_three_positions():
    state = new_state([particle("a", positions=3)], [1])
    out = particle_h(state, "a")
    w = np.exp(2j * np.pi / 3)
    expected = np.array([1, w, w ** 2, 0], dtype=np.complex128) / np.sqrt(3)
    assert np.allclose(out.amps, expected, atol=1e-14)


@pytest.mark.parametrize("d", range(3, 9))
def test_fourier_has_the_bytes_of_the_meshgrid_formula(d):
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    want = np.exp(2j * np.pi * j * k / d) / np.sqrt(d)
    assert _fourier(d).tobytes() == want.tobytes()


def _literal(dim, levels, block):
    # the identity with `block` written on `levels`, as the gates were built
    m = np.eye(dim, dtype=np.complex128)
    m[np.ix_(levels, levels)] = block
    return m


_LOGICAL, _POSITIONS = (PH_ZERO, PH_ONE_H), (BLOCKED, OPEN)
_H2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
_X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z2 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_OPERATORS = {
    "photon_h": (gates._PHOTON_H, _literal(4, _LOGICAL, _H2)),
    "particle_h": (gates._PARTICLE_H, _literal(3, _POSITIONS, _H2)),
    **{f"phase-{coeff:.3g}-{value}": (
        gates._phase(coeff, value),
        _literal(4, [PH_ONE_H], [[np.exp(1j * coeff * value)]]))
       for coeff, value in [(0.7, 0), (0.7, 3), (-2.0 * np.pi / 3, 2), (np.pi, 1)]},
}


@pytest.mark.parametrize("name", sorted(_OPERATORS))
def test_operators_have_the_bytes_of_their_literal_form(name):
    got, want = _OPERATORS[name]
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable


# X and Z move amplitudes by index; each step's reference is `apply_local`
# with its literal matrix
_PAULIS = {
    "photon_x": (photon_x, _literal(4, _LOGICAL, _X2)),
    "photon_z": (photon_z, _literal(4, _LOGICAL, _Z2)),
    "particle_x": (particle_x, _literal(3, _POSITIONS, _X2)),
    "particle_z": (particle_z, _literal(3, _POSITIONS, _Z2)),
}
# the target kinds sit first, in the middle and last
_PAULI_LAYOUT = (photon("p"), particle("m"), photon("q"), particle("n"))
_PAULI_TARGETS = {"photon": ("p", "q"), "particle": ("m", "n")}


def _state(rng, batch=None):
    # a plain state, or a stack of `batch` of them, each of unit norm
    shape = tuple(s.dim for s in _PAULI_LAYOUT)
    if batch is None:
        return StateVector(_PAULI_LAYOUT, signed_zero_amps(rng, shape))
    return StateVector(_PAULI_LAYOUT, [signed_zero_amps(rng, shape) for _ in range(batch)],
                       batch)


@pytest.mark.parametrize("name", sorted(_PAULIS))
def test_pauli_steps_have_the_values_of_the_literal_product(name):
    gate, op = _PAULIS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    for state in [_state(rng) for _ in range(4)] + [_state(rng, batch=3)]:
        before = state.amps.tobytes()
        for target in _PAULI_TARGETS[name.split("_")[0]]:
            got = gate(state, target)
            assert got.batch == state.batch
            assert_values_with_positive_zeros(got.amps, apply_local(state, target, op).amps)
        assert state.amps.tobytes() == before


@pytest.mark.parametrize("gate", ["cx", "cz"])
def test_corrections_act_on_every_subset_of_rows_as_the_literal_product(gate):
    # a stack of three branches, each branch's value 0 or 1; a branch whose
    # value is 1 gets the product's values, the others keep their bits
    rng = np.random.default_rng(ord(gate[1]))
    stack = _state(rng, batch=3)
    for values in itertools.product((0, 1), repeat=3):
        for kind, targets in _PAULI_TARGETS.items():
            op = _PAULIS[f"{kind}_{gate[1]}"][1]
            for target in targets:
                got = classically_controlled(stack, list(values), gate, target)
                for b, value in enumerate(values):
                    branch = stack.branch(b)
                    if value:
                        assert_values_with_positive_zeros(
                            got.amps[b], apply_local(branch, target, op).amps)
                    else:
                        assert got.amps[b].tobytes() == branch.amps.tobytes()
    plain = _state(rng)
    for kind, targets in _PAULI_TARGETS.items():
        op = _PAULIS[f"{kind}_{gate[1]}"][1]
        for target in targets:
            assert classically_controlled(plain, 0, gate, target) is plain
            assert_values_with_positive_zeros(
                classically_controlled(plain, 1, gate, target).amps,
                apply_local(plain, target, op).amps)


def test_particle_gates_leave_exploded_level_alone():
    state = new_state([particle("a")], [2])
    for gate in (particle_h, particle_x, particle_z):
        out = gate(state, "a")
        assert out.amps[2] == pytest.approx(1.0)


def test_particle_xz_require_two_positions():
    state = new_state([particle("a", positions=3)], [0])
    with pytest.raises(ValueError, match="^particle_x needs a 2-position particle, "
                                         "but 'a' is a 3-position particle$"):
        particle_x(state, "a")
    with pytest.raises(ValueError, match="^particle_z needs a 2-position particle, "
                                         "but 'a' is a 3-position particle$"):
        particle_z(state, "a")


def test_gate_kind_mismatch_rejected():
    state = new_state([photon("p"), particle("a")], [PH_ZERO, BLOCKED])
    with pytest.raises(ValueError, match="^photon_h needs a photon, "
                                         "but 'a' is a 2-position particle$"):
        photon_h(state, "a")
    with pytest.raises(ValueError, match="^a position count needs a particle, "
                                         "but 'p' is a photon$"):
        particle_h(state, "p")


def test_prepare_pm_signs():
    plus = prepare_particle_pm(particle("a"), "+")
    minus = prepare_particle_pm(particle("a"), "-")
    assert plus[BLOCKED] == minus[BLOCKED] == pytest.approx(1 / np.sqrt(2))
    assert plus[OPEN] == pytest.approx(1 / np.sqrt(2))
    assert minus[OPEN] == pytest.approx(-1 / np.sqrt(2))
    assert plus[2] == minus[2] == 0.0
    with pytest.raises(ValueError, match="sign"):
        prepare_particle_pm(particle("a"), "x")
    with pytest.raises(ValueError, match="2-position"):
        prepare_particle_pm(particle("a", positions=3), "+")
    with pytest.raises(ValueError, match="^pm preparation needs a 2-position particle, "
                                         "but 'p' is a photon$"):
        prepare_particle_pm(photon("p"), "+")


def test_prepare_uniform_three_positions():
    out = prepare_particle_uniform(particle("a", positions=3))
    assert np.allclose(out[:3], np.full(3, 1 / np.sqrt(3)), atol=1e-14)
    assert out[3] == 0.0
    with pytest.raises(ValueError, match="^a position count needs a particle, "
                                         "but 'p' is a photon$"):
        prepare_particle_uniform(photon("p"))


def test_classically_controlled_noop_on_zero():
    state = new_state([photon("p")], [PH_ONE_H])
    out = classically_controlled(state, 0, "cx", "p")
    assert np.allclose(out.amps, state.amps)


def test_classically_controlled_applies_on_one():
    state = new_state([photon("p")], [PH_ONE_H])
    out = classically_controlled(state, 1, "cx", "p")
    assert out.amps[PH_ZERO] == pytest.approx(1.0)
    out = classically_controlled(state, 1, "cz", "p")
    assert out.amps[PH_ONE_H] == pytest.approx(-1.0)


def assert_corrections_fire_on_any_nonzero_value() -> None:
    """A correction fires on a nonzero recorded value, 2 as well as 1, on a
    plain state and on each branch of a stack.  A program never records a
    2 for one to read: the validator lets a correction read only a bit that
    holds 0 or 1."""
    state = new_state([photon("p")], [PH_ONE_H])
    stack = stack_branches([state] * 3)
    for gate, level, fired in (("cx", PH_ZERO, 1.0), ("cz", PH_ONE_H, -1.0)):
        assert classically_controlled(state, 2, gate, "p").amps[level] == fired
        got = classically_controlled(stack, [2, 0, 1], gate, "p").amps[:, level]
        assert got.tolist() == [fired, state.amps[level], fired]


def test_corrections_fire_on_any_nonzero_value():
    assert_corrections_fire_on_any_nonzero_value()


def test_classically_controlled_particle_target():
    state = new_state([particle("a")], [BLOCKED])
    out = classically_controlled(state, 1, "cx", "a")
    assert out.amps[OPEN] == pytest.approx(1.0)


def test_classically_controlled_unknown_gate():
    state = new_state([photon("p")], [PH_ZERO])
    with pytest.raises(ValueError):
        classically_controlled(state, 1, "ct", "p")


def test_cphase_rotates_h_level_by_recorded_outcome():
    coeff = -2 * np.pi / 3
    state = new_state([photon("p")], [PH_ONE_H])
    out = classically_controlled_phase(state, 2, "p", coeff)
    assert out.amps[PH_ONE_H] == pytest.approx(np.exp(1j * coeff * 2))
    out = classically_controlled_phase(state, 0, "p", coeff)
    assert out.amps[PH_ONE_H] == pytest.approx(1.0)


def test_profile_validation():
    ImperfectionProfile(0.5, 0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\]$"):
        ImperfectionProfile(p=1.5)
    with pytest.raises(ValueError, match=r"^eta must lie in \[0, 1\]$"):
        ImperfectionProfile(eta=-0.1)
    # each chance is a finite real number, and a bool or a string is not one
    for field in ("p", "q", "r", "s", "eta"):
        for value, shown in ((True, "True"), ("1", "'1'"), (float("nan"), "nan")):
            with pytest.raises(ValueError, match=rf"^{field} must be a number, got {shown}$"):
                ImperfectionProfile(**{field: value})


def test_instruction_success_mapping():
    prof = ImperfectionProfile(p=0.9, q=0.8, r=0.7, s=0.6, eta=0.5)

    def success(op, **args):
        charge = Instruction(op, args).charge
        return getattr(prof, charge) if charge else 1.0

    assert success("photon_h", target="p") == 0.9
    assert success("qicz", photon="p", particle="b") == 0.8
    assert success("qicz_multi", photon="p", particles=["b"]) == 0.8
    for op in ("cx", "cz"):
        assert success(op, bit="m", target="p") == 0.7
    assert success("cphase", key="m", target="p", coeff=0.5) == 0.7
    assert success("particle_h", target="b") == 0.6
    assert success("measure", target="p", basis="photon_computational", bit="m") == 0.5
    assert success("measure", target="b", basis="particle_pm", bit="m") == 1.0
    assert success("prepare", target="b", pm="+") == 1.0
    # every profile field is charged by exactly one census class
    assert set(CHARGED) <= set(CENSUS_CLASSES)
    assert sorted(CHARGED.values()) == sorted(f.name for f in fields(ImperfectionProfile))
