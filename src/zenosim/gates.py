"""Ideal single-subsystem gates, the level vectors of the pm and uniform
particle preparations, classically controlled corrections, and the
component-imperfection profile with the census classes it charges.

Each gate and preparation checks what it acts on through `state.expect`,
under its own name ("particle_x needs a 2-position particle, but 'b' is a
3-position particle"), the one guard the program validator calls too;
particle_h and the uniform preparation reach it through
`SubsystemSpec.positions`.

A preparation helper only builds the fresh particle's vector; the
interpreter appends it to the state in one step with
`state.add_subsystem`, whatever the state holds (even no weight at all).
The pm vectors are the plus and minus rows of `state._PM_FACTORS`, the
factors the particle_pm measurement projects on.
Photon gates act on the {|0>, |1H>} logical block and leave |1V> and the
sink alone.  Particle gates act on the position block and leave the
exploded level alone; for a particle with more than two positions,
particle_h is the discrete Fourier transform over the positions.  A
classically controlled correction takes the recorded value itself; the
interpreter reads it from its classical record, a plain dict of bit name to
value, whose read-before-write rule the program validator enforces.  On a
batched state (see `state`), every gate acts on each branch, and a
correction takes one recorded value per branch.

H, the Fourier transform and the cphase phase are products on their one
target through `state.apply_local`.  X and Z, plain or classically
controlled, move amplitudes by index instead (`_pauli`), with the bits of
the product they replace.  A correction fires on a nonzero recorded value;
on a batch it moves only the branches whose value is nonzero.

An instruction's census class alone fixes the profile field it is charged,
through `CHARGED`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import (
    PHOTON_DIM,
    PM_MINUS,
    PM_PLUS,
    StateVector,
    SubsystemSpec,
    _PM_FACTORS,
    _is_real,
    apply_local,
    expect,
)


def _block(dim: int, block) -> np.ndarray:
    # `block` on the first levels (a photon's logical block, a particle's
    # positions), the identity on the rest, read-only
    m = np.eye(dim, dtype=np.complex128)
    m[:len(block), :len(block)] = block
    m.flags.writeable = False
    return m


_H2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) * (1.0 / np.sqrt(2.0))


def _fourier(positions: int) -> np.ndarray:
    j, k = np.arange(positions)[:, None], np.arange(positions)[None, :]
    return np.exp(2j * np.pi * j * k / positions) / np.sqrt(positions)


# the fixed Hadamards, built once at import (a 2-position particle has 3
# levels); every call hands the same read-only matrix to apply_local
_PHOTON_H, _PARTICLE_H = _block(PHOTON_DIM, _H2), _block(3, _H2)


def photon_h(state: StateVector, name: str) -> StateVector:
    """Hadamard on the photon's logical block."""
    expect(state.spec(name), "a photon", "photon_h")
    return apply_local(state, name, _PHOTON_H)


def _pauli(state: StateVector, name: str, gate: str, rows=slice(None)) -> StateVector:
    """X ("x") or Z ("z") on the first two levels of `name`, by index: X
    takes the levels (1, 0, rest...) along the target's axis, and Z negates
    level 1.  On a batched state it acts on the branches `rows` selects
    and leaves the others' bits as they are, all in one copy of the
    amplitudes.  Every zero of a branch it acts on is written as +0.0, so
    the bits are those of `apply_local`'s product with the literal matrix,
    whose exact sums of ones and zeros give +0.0 for a zero."""
    amps = state.amps
    lead = () if state.batch is None else (rows,)
    at = lead + (slice(None),) * state.axis(name)
    out = amps.copy()
    if gate == "x":
        out[at + (0,)], out[at + (1,)] = amps[at + (1,)], amps[at + (0,)]
    else:
        out[at + (1,)] = -amps[at + (1,)]
    out[lead] += 0.0
    return StateVector(state.layout, out, state.batch)


def photon_x(state: StateVector, name: str) -> StateVector:
    expect(state.spec(name), "a photon", "photon_x")
    return _pauli(state, name, "x")


def photon_z(state: StateVector, name: str) -> StateVector:
    expect(state.spec(name), "a photon", "photon_z")
    return _pauli(state, name, "z")


def particle_h(state: StateVector, name: str) -> StateVector:
    """Hadamard on a 2-position particle; the position-space Fourier
    transform when there are more positions."""
    spec = state.spec(name)
    d = spec.positions()
    op = _PARTICLE_H if d == 2 else _block(spec.dim, _fourier(d))
    return apply_local(state, name, op)


def particle_x(state: StateVector, name: str) -> StateVector:
    expect(state.spec(name), "a 2-position particle", "particle_x")
    return _pauli(state, name, "x")


def particle_z(state: StateVector, name: str) -> StateVector:
    expect(state.spec(name), "a 2-position particle", "particle_z")
    return _pauli(state, name, "z")


def prepare_particle_pm(spec: SubsystemSpec, sign: str) -> np.ndarray:
    """Level vector of (|blocked> +/- |open>)/sqrt(2) for a fresh particle:
    a float copy of the plus or minus row of the particle_pm outcome
    factors, `state._PM_FACTORS`."""
    expect(spec, "a 2-position particle", "pm preparation")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return _PM_FACTORS[PM_PLUS if sign == "+" else PM_MINUS].real.copy()


def prepare_particle_uniform(spec: SubsystemSpec) -> np.ndarray:
    """Level vector of the uniform position superposition for a fresh
    particle."""
    d = spec.positions()
    vec = np.zeros(spec.dim)
    vec[:d] = 1.0 / np.sqrt(d)
    return vec


def classically_controlled(state: StateVector, value, gate: str,
                           target: str) -> StateVector:
    """Apply cX or cZ on the target iff the recorded bit value is nonzero;
    on a batched state, `value` holds one value per branch, and the
    branches whose value is 0 keep their amplitudes.  The validator lets a
    correction read only a bit that holds 0 or 1."""
    if gate not in ("cx", "cz"):
        raise ValueError(f"unknown controlled gate {gate!r}")
    expect(state.spec(target), "a photon or a 2-position particle", gate)
    values = [value] if state.batch is None else value
    on = [b for b, v in enumerate(values) if v != 0]
    if not on:
        return state
    return _pauli(state, target, gate[1], slice(None) if len(on) == len(values) else on)


def _phase(coeff: float, value: int) -> np.ndarray:
    return _block(PHOTON_DIM, [[1, 0], [0, np.exp(1j * coeff * value)]])


def classically_controlled_phase(state: StateVector, value, target: str,
                                 coeff: float) -> StateVector:
    """Phase exp(i * coeff * value) on the photon's |1H> level, for a
    recorded integer outcome `value`; on a batched state, `value` holds one
    outcome per branch, and each branch gets its own phase from one stack
    of operators."""
    expect(state.spec(target), "a photon", "cphase")
    if state.batch is None:
        return apply_local(state, target, _phase(coeff, value))
    return apply_local(state, target, np.array([_phase(coeff, v) for v in value]))


@dataclass(frozen=True)
class ImperfectionProfile:
    """Per-component success probabilities: p for optical H, q for the
    interrogation CZ, r for classically controlled corrections, s for the
    particle H, eta for photon detection (`CHARGED` maps each census class
    to its field), each a real number in [0, 1] and not a bool.  Particle
    preparation and particle measurement are taken as perfect."""

    p: float = 1.0
    q: float = 1.0
    r: float = 1.0
    s: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        for field in ("p", "q", "r", "s", "eta"):
            value = getattr(self, field)
            if not _is_real(value):
                raise ValueError(f"{field} must be a number, got {value!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field} must lie in [0, 1]")


# census class -> the ImperfectionProfile field an instruction of that class
# is charged; classes not listed (particle measurements) are perfect
CHARGED = {"h_optical": "p", "qicz": "q", "cc": "r", "h_particle": "s",
           "detectors": "eta"}
