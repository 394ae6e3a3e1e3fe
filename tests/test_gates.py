"""Single-subsystem gates, preparation, classical corrections, imperfections."""

from dataclasses import fields

import numpy as np
import pytest

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
    new_state,
    norm_sq,
    particle,
    photon,
)


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


def test_particle_gates_leave_exploded_level_alone():
    state = new_state([particle("a")], [2])
    for gate in (particle_h, particle_x, particle_z):
        out = gate(state, "a")
        assert out.amps[2] == pytest.approx(1.0)


def test_particle_xz_require_two_positions():
    state = new_state([particle("a", positions=3)], [0])
    with pytest.raises(ValueError):
        particle_x(state, "a")
    with pytest.raises(ValueError):
        particle_z(state, "a")


def test_gate_kind_mismatch_rejected():
    state = new_state([photon("p"), particle("a")], [PH_ZERO, BLOCKED])
    with pytest.raises(ValueError):
        photon_h(state, "a")
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError, match="'p' is not a particle"):
        prepare_particle_pm(photon("p"), "+")


def test_prepare_uniform_three_positions():
    out = prepare_particle_uniform(particle("a", positions=3))
    assert np.allclose(out[:3], np.full(3, 1 / np.sqrt(3)), atol=1e-14)
    assert out[3] == 0.0
    with pytest.raises(ValueError, match="'p' is not a particle"):
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
    with pytest.raises(ValueError):
        ImperfectionProfile(p=1.5)
    with pytest.raises(ValueError):
        ImperfectionProfile(eta=-0.1)


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
