"""Ideal single-subsystem gates, preparation helpers, classically controlled
corrections, and the component-imperfection profile.

Photon gates act on the {|0>, |1H>} logical block and leave |1V> and the
sink alone.  Particle gates act on the position block and leave the
exploded level alone; for a particle with more than two positions,
particle_h is the discrete Fourier transform over the positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import (
    BLOCKED,
    OPEN,
    PH_ONE_H,
    PH_ZERO,
    ClassicalRegister,
    StateVector,
    apply_local,
)

_SQRT_HALF = 1.0 / np.sqrt(2.0)


def _photon_block(block: np.ndarray) -> np.ndarray:
    m = np.eye(4, dtype=np.complex128)
    m[np.ix_((PH_ZERO, PH_ONE_H), (PH_ZERO, PH_ONE_H))] = block
    return m


def _particle_block(positions: int, block: np.ndarray) -> np.ndarray:
    m = np.eye(positions + 1, dtype=np.complex128)
    m[:positions, :positions] = block
    return m


_H2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT_HALF
_X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z2 = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _fourier(positions: int) -> np.ndarray:
    j, k = np.meshgrid(np.arange(positions), np.arange(positions), indexing="ij")
    return np.exp(2j * np.pi * j * k / positions) / np.sqrt(positions)


def photon_h(state: StateVector, name: str) -> StateVector:
    """Hadamard on the photon's logical block."""
    _expect_kind(state, name, "photon")
    return apply_local(state, [name], _photon_block(_H2))


def photon_x(state: StateVector, name: str) -> StateVector:
    _expect_kind(state, name, "photon")
    return apply_local(state, [name], _photon_block(_X2))


def photon_z(state: StateVector, name: str) -> StateVector:
    _expect_kind(state, name, "photon")
    return apply_local(state, [name], _photon_block(_Z2))


def particle_h(state: StateVector, name: str) -> StateVector:
    """Hadamard on a 2-position particle; the position-space Fourier
    transform when there are more positions."""
    spec = _expect_kind(state, name, "particle")
    d = spec.positions()
    block = _H2 if d == 2 else _fourier(d)
    return apply_local(state, [name], _particle_block(d, block))


def particle_x(state: StateVector, name: str) -> StateVector:
    spec = _expect_kind(state, name, "particle")
    if spec.positions() != 2:
        raise ValueError("particle_x is defined for 2-position particles")
    return apply_local(state, [name], _particle_block(2, _X2))


def particle_z(state: StateVector, name: str) -> StateVector:
    spec = _expect_kind(state, name, "particle")
    if spec.positions() != 2:
        raise ValueError("particle_z is defined for 2-position particles")
    return apply_local(state, [name], _particle_block(2, _Z2))


def _expect_kind(state: StateVector, name: str, kind: str):
    spec = state.spec(name)
    if spec.kind != kind:
        raise ValueError(f"{name!r} is not a {kind}")
    return spec


def _single_position_support(state: StateVector, name: str) -> tuple[int, int]:
    """Axis and the unique position level carrying amplitude; an error if the
    particle is entangled or superposed (preparation is an input-stage op)."""
    axis = state.axis(name)
    spec = state.layout[axis]
    occupied = []
    for lv in range(spec.dim):
        sl = np.take(state.amps, lv, axis=axis)
        if float(np.vdot(sl, sl).real) > 1e-24:
            occupied.append(lv)
    if len(occupied) != 1 or occupied[0] >= spec.positions():
        raise ValueError(f"particle {name!r} is not in a single position state")
    return axis, occupied[0]


def _respread(state: StateVector, name: str, weights: np.ndarray) -> StateVector:
    axis, src = _single_position_support(state, name)
    content = np.take(state.amps, src, axis=axis)
    amps = np.zeros_like(state.amps)
    idx = [slice(None)] * amps.ndim
    for lv, w in enumerate(weights):
        if w == 0.0:
            continue
        idx[axis] = lv
        amps[tuple(idx)] = w * content
    return StateVector(state.layout, amps)


def prepare_particle_pm(state: StateVector, name: str, sign: str) -> StateVector:
    """Set an unentangled particle to (|blocked> +/- |open>)/sqrt(2)."""
    spec = _expect_kind(state, name, "particle")
    if spec.positions() != 2:
        raise ValueError("pm preparation needs a 2-position particle")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    weights = np.zeros(spec.dim)
    weights[BLOCKED] = _SQRT_HALF
    weights[OPEN] = _SQRT_HALF if sign == "+" else -_SQRT_HALF
    return _respread(state, name, weights)


def prepare_particle_uniform(state: StateVector, name: str) -> StateVector:
    """Set an unentangled particle to the uniform position superposition."""
    spec = _expect_kind(state, name, "particle")
    d = spec.positions()
    weights = np.zeros(spec.dim)
    weights[:d] = 1.0 / np.sqrt(d)
    return _respread(state, name, weights)


def classically_controlled(state: StateVector, register: ClassicalRegister,
                           bit: str, gate: str, target: str) -> StateVector:
    """Apply cX or cZ on the target iff the named bit is 1."""
    value = register.get(bit)
    if gate not in ("cx", "cz"):
        raise ValueError(f"unknown controlled gate {gate!r}")
    if value == 0:
        return state
    kind = state.spec(target).kind
    if gate == "cx":
        return photon_x(state, target) if kind == "photon" else particle_x(state, target)
    return photon_z(state, target) if kind == "photon" else particle_z(state, target)


def classically_controlled_phase(state: StateVector, register: ClassicalRegister,
                                 key: str, target: str, coeff: float) -> StateVector:
    """Phase exp(i * coeff * outcome) on the photon's |1H> level, controlled
    by a recorded integer outcome."""
    value = register.get(key)
    _expect_kind(state, target, "photon")
    m = np.eye(4, dtype=np.complex128)
    m[PH_ONE_H, PH_ONE_H] = np.exp(1j * coeff * value)
    return apply_local(state, [target], m)


@dataclass(frozen=True)
class ImperfectionProfile:
    """Per-component success probabilities: p for optical H, q for the
    interrogation CZ, r for classically controlled corrections, s for the
    particle H, eta for photon detection.  Particle preparation and
    particle measurement are taken as perfect."""

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

