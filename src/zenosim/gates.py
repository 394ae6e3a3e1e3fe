"""Ideal single-subsystem gates, the level vectors of the pm and uniform
particle preparations, classically controlled corrections, and the
component-imperfection profile with the census classes it charges.

A preparation helper only builds the fresh particle's vector; the
interpreter appends it to the state in one step with
`state.add_subsystem`, whatever the state holds (even no weight at all).
Photon gates act on the {|0>, |1H>} logical block and leave |1V> and the
sink alone.  Particle gates act on the position block and leave the
exploded level alone; for a particle with more than two positions,
particle_h is the discrete Fourier transform over the positions.  A
classically controlled correction takes the recorded value itself; the
interpreter reads it from its classical record, a plain dict of bit name to
value, whose read-before-write rule the program validator enforces.  On a
batched state (see `state`), every gate acts on each branch, and a
correction takes one recorded value per branch.

An instruction's census class alone fixes the profile field it is charged,
through `CHARGED`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import (
    BLOCKED,
    OPEN,
    PH_ONE_H,
    PH_ZERO,
    StateVector,
    SubsystemSpec,
    apply_local,
)

_SQRT_HALF = 1.0 / np.sqrt(2.0)


def _photon_block(block: np.ndarray) -> np.ndarray:
    m = np.eye(4, dtype=np.complex128)
    m[np.ix_((PH_ZERO, PH_ONE_H), (PH_ZERO, PH_ONE_H))] = block
    m.flags.writeable = False
    return m


def _particle_block(positions: int, block: np.ndarray) -> np.ndarray:
    m = np.eye(positions + 1, dtype=np.complex128)
    m[:positions, :positions] = block
    m.flags.writeable = False
    return m


_H2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT_HALF
_X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z2 = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _fourier(positions: int) -> np.ndarray:
    j, k = np.arange(positions)[:, None], np.arange(positions)[None, :]
    return np.exp(2j * np.pi * j * k / positions) / np.sqrt(positions)


# the fixed operators, built once at import; every call of a gate hands the
# same read-only matrix to apply_local
_PHOTON_H, _PHOTON_X, _PHOTON_Z = (_photon_block(b) for b in (_H2, _X2, _Z2))
_PARTICLE_H, _PARTICLE_X, _PARTICLE_Z = (_particle_block(2, b) for b in (_H2, _X2, _Z2))


def photon_h(state: StateVector, name: str) -> StateVector:
    """Hadamard on the photon's logical block."""
    _expect_kind(state.spec(name), "photon")
    return apply_local(state, [name], _PHOTON_H)


def photon_x(state: StateVector, name: str) -> StateVector:
    _expect_kind(state.spec(name), "photon")
    return apply_local(state, [name], _PHOTON_X)


def photon_z(state: StateVector, name: str) -> StateVector:
    _expect_kind(state.spec(name), "photon")
    return apply_local(state, [name], _PHOTON_Z)


def particle_h(state: StateVector, name: str) -> StateVector:
    """Hadamard on a 2-position particle; the position-space Fourier
    transform when there are more positions."""
    spec = _expect_kind(state.spec(name), "particle")
    d = spec.positions()
    op = _PARTICLE_H if d == 2 else _particle_block(d, _fourier(d))
    return apply_local(state, [name], op)


def particle_x(state: StateVector, name: str) -> StateVector:
    spec = _expect_kind(state.spec(name), "particle")
    if spec.positions() != 2:
        raise ValueError("particle_x is defined for 2-position particles")
    return apply_local(state, [name], _PARTICLE_X)


def particle_z(state: StateVector, name: str) -> StateVector:
    spec = _expect_kind(state.spec(name), "particle")
    if spec.positions() != 2:
        raise ValueError("particle_z is defined for 2-position particles")
    return apply_local(state, [name], _PARTICLE_Z)


def _expect_kind(spec: SubsystemSpec, kind: str) -> SubsystemSpec:
    if spec.kind != kind:
        raise ValueError(f"{spec.name!r} is not a {kind}")
    return spec


def prepare_particle_pm(spec: SubsystemSpec, sign: str) -> np.ndarray:
    """Level vector of (|blocked> +/- |open>)/sqrt(2) for a fresh particle."""
    _expect_kind(spec, "particle")
    if spec.positions() != 2:
        raise ValueError("pm preparation needs a 2-position particle")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    vec = np.zeros(spec.dim)
    vec[BLOCKED] = _SQRT_HALF
    vec[OPEN] = _SQRT_HALF if sign == "+" else -_SQRT_HALF
    return vec


def prepare_particle_uniform(spec: SubsystemSpec) -> np.ndarray:
    """Level vector of the uniform position superposition for a fresh
    particle."""
    d = _expect_kind(spec, "particle").positions()
    vec = np.zeros(spec.dim)
    vec[:d] = 1.0 / np.sqrt(d)
    return vec


def classically_controlled(state: StateVector, value, gate: str,
                           target: str) -> StateVector:
    """Apply cX or cZ on the target iff the recorded bit value is 1; on a
    batched state, `value` holds one value per branch, and the branches
    whose value is 0 keep their amplitudes."""
    if gate not in ("cx", "cz"):
        raise ValueError(f"unknown controlled gate {gate!r}")
    values = [value] if state.batch is None else value
    on = [b for b, v in enumerate(values) if v != 0]
    if not on:
        return state
    if len(on) == len(values):
        return _controlled_gate(state, gate, target)
    # the gate acts on the branches whose value is 1 alone: one plain
    # branch, or a stack of them, written into a copy of the amplitudes
    sub = state.branch(on[0]) if len(on) == 1 else StateVector(
        state.layout, state.amps[on], len(on))
    amps = state.amps.copy()
    amps[on] = _controlled_gate(sub, gate, target).amps
    return StateVector(state.layout, amps, state.batch)


def _controlled_gate(state: StateVector, gate: str, target: str) -> StateVector:
    kind = state.spec(target).kind
    if gate == "cx":
        return photon_x(state, target) if kind == "photon" else particle_x(state, target)
    return photon_z(state, target) if kind == "photon" else particle_z(state, target)


def _phase(coeff: float, value: int) -> np.ndarray:
    m = np.eye(4, dtype=np.complex128)
    m[PH_ONE_H, PH_ONE_H] = np.exp(1j * coeff * value)
    return m


def classically_controlled_phase(state: StateVector, value, target: str,
                                 coeff: float) -> StateVector:
    """Phase exp(i * coeff * value) on the photon's |1H> level, for a
    recorded integer outcome `value`; on a batched state, `value` holds one
    outcome per branch, and each branch gets its own phase from one stack
    of operators."""
    _expect_kind(state.spec(target), "photon")
    if state.batch is None:
        return apply_local(state, [target], _phase(coeff, value))
    return apply_local(state, [target], np.array([_phase(coeff, v) for v in value]))


@dataclass(frozen=True)
class ImperfectionProfile:
    """Per-component success probabilities: p for optical H, q for the
    interrogation CZ, r for classically controlled corrections, s for the
    particle H, eta for photon detection (`CHARGED` maps each census class
    to its field).  Particle preparation and particle measurement are taken
    as perfect."""

    p: float = 1.0
    q: float = 1.0
    r: float = 1.0
    s: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        for field in ("p", "q", "r", "s", "eta"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field} must lie in [0, 1]")


# census class -> the ImperfectionProfile field an instruction of that class
# is charged; classes not listed (particle measurements) are perfect
CHARGED = {"h_optical": "p", "qicz": "q", "cc": "r", "h_particle": "s",
           "detectors": "eta"}
