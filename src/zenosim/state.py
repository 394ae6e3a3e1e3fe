"""Tensor-product state vectors over photon and particle subsystems.

A photon carries four levels: the logical-0 mode, the logical-1 mode split
into horizontal and vertical polarization, and a sink level that collects
absorbed or lost amplitude.  A particle with d positions carries d+1 levels,
the last being the exploded level.  States may be sub-normalized: the norm
deficit 1 - sum|amp|^2 is the probability weight of failure events that were
pruned from the vector.

Amplitudes are stored dense, C-ordered, with the first subsystem in the
layout varying slowest.  All success probabilities reported by measurement
are pre-renormalization branch weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-12
BRANCH_CUTOFF = 1e-15

# photon levels
PH_ZERO = 0
PH_ONE_H = 1
PH_ONE_V = 2
PH_SINK = 3
PHOTON_DIM = 4

# particle positions (d = 2)
BLOCKED = 0
OPEN = 1

# measurement bases
PHOTON_COMPUTATIONAL = "photon_computational"
PARTICLE_PM = "particle_pm"
PARTICLE_COMPUTATIONAL = "particle_computational"
QUDIT_POSITION = "qudit_position"

# particle_pm outcomes
PM_PLUS = 0
PM_MINUS = 1
PM_EXPLODED = 2

# photon_computational pooled failure outcome (|1V> and sink together)
PHOTON_FAIL = 2


@dataclass(frozen=True)
class SubsystemSpec:
    name: str
    kind: str  # "photon" or "particle"
    dim: int

    def positions(self) -> int:
        """Number of particle position levels (excludes the exploded level)."""
        if self.kind != "particle":
            raise ValueError(f"{self.name} is not a particle")
        return self.dim - 1

    def exploded_level(self) -> int:
        if self.kind != "particle":
            raise ValueError(f"{self.name} is not a particle")
        return self.dim - 1


def photon(name: str) -> SubsystemSpec:
    return SubsystemSpec(name, "photon", PHOTON_DIM)


def particle(name: str, positions: int = 2) -> SubsystemSpec:
    if positions < 2:
        raise ValueError("particle needs at least 2 positions")
    return SubsystemSpec(name, "particle", positions + 1)


@dataclass
class StateVector:
    layout: tuple[SubsystemSpec, ...]
    amps: np.ndarray  # shape = tuple of subsystem dims

    def __post_init__(self):
        dims = tuple(s.dim for s in self.layout)
        self.amps = np.ascontiguousarray(self.amps, dtype=np.complex128).reshape(dims)
        n = norm_sq(self)
        # a non-finite amplitude makes the norm inf or nan, so the scan runs
        # only when the norm check fails
        if not n <= 1 + ATOL:
            if not np.isfinite(self.amps).all():
                raise ValueError("non-finite amplitude")
            raise ValueError(f"norm^2 {n} exceeds 1")

    def axis(self, name: str) -> int:
        for i, s in enumerate(self.layout):
            if s.name == name:
                return i
        raise KeyError(f"unknown subsystem {name!r}")

    def spec(self, name: str) -> SubsystemSpec:
        return self.layout[self.axis(name)]

    def copy(self) -> "StateVector":
        return StateVector(self.layout, self.amps.copy())


def norm_sq(state: StateVector) -> float:
    return float(np.vdot(state.amps, state.amps).real)


def norm_deficit(state: StateVector) -> float:
    """Probability weight of pruned failure events."""
    return max(0.0, 1.0 - norm_sq(state))


def level_weight(state: StateVector, name: str, level: int) -> float:
    """Total probability weight with the named subsystem at one level."""
    axis = state.axis(name)
    sl = np.take(state.amps, level, axis=axis)
    return float(np.vdot(sl, sl).real)


def new_state(layout: list[SubsystemSpec], levels: list[int]) -> StateVector:
    """Product basis state with amplitude 1 at the given multi-index."""
    if len(layout) != len(levels):
        raise ValueError("layout/levels length mismatch")
    for spec, lv in zip(layout, levels):
        if not 0 <= lv < spec.dim:
            raise ValueError(f"level {lv} out of range for subsystem {spec.name!r}")
    dims = tuple(s.dim for s in layout)
    amps = np.zeros(dims, dtype=np.complex128)
    amps[tuple(levels)] = 1.0
    return StateVector(tuple(layout), amps)


def apply_local(state: StateVector, targets: list[str], op: np.ndarray) -> StateVector:
    """Apply a dense operator on the target slots, identity elsewhere.

    The operator indexes the targets big-endian in list order.  It must be a
    contraction (largest singular value <= 1 + 1e-12); the norm may shrink
    but never grow beyond tolerance.
    """
    axes = [state.axis(t) for t in targets]
    if len(set(axes)) != len(axes):
        raise ValueError("duplicate target")
    block = math.prod(state.layout[a].dim for a in axes)
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (block, block):
        raise ValueError(f"operator shape {op.shape} does not match target dimension {block}")
    smax = float(np.linalg.svd(op, compute_uv=False)[0])
    if smax > 1 + ATOL:
        raise ValueError(f"operator is not a contraction (sigma_max = {smax})")
    perm = axes + [a for a in range(len(state.layout)) if a not in axes]
    front = state.amps.transpose(perm)
    out = (op @ front.reshape(block, -1)).reshape(front.shape)
    return StateVector(state.layout, out.transpose(sorted(range(len(perm)), key=perm.__getitem__)))


def basis_outcomes(spec: SubsystemSpec, basis: str) -> list[tuple[int, np.ndarray | None]]:
    """Outcome list as (outcome, factor vector); None marks the pooled photon
    failure outcome whose projection has rank 2.  The last outcome is always
    the failure one (pooled photon failure or exploded particle).  Raises
    ValueError when the basis does not fit the subsystem."""
    d = spec.dim
    e = np.eye(d, dtype=np.complex128)
    if basis == PHOTON_COMPUTATIONAL:
        if spec.kind != "photon":
            raise ValueError(f"{spec.name} is not a photon")
        return [(0, e[PH_ZERO]), (1, e[PH_ONE_H]), (PHOTON_FAIL, None)]
    if spec.kind != "particle":
        raise ValueError(f"basis {basis!r} needs a particle, got {spec.name!r}")
    if basis == PARTICLE_PM:
        if spec.positions() != 2:
            raise ValueError("particle_pm basis needs a 2-position particle")
        plus = (e[BLOCKED] + e[OPEN]) / np.sqrt(2)
        minus = (e[BLOCKED] - e[OPEN]) / np.sqrt(2)
        return [(PM_PLUS, plus), (PM_MINUS, minus), (PM_EXPLODED, e[2])]
    if basis in (PARTICLE_COMPUTATIONAL, QUDIT_POSITION):
        return [(k, e[k]) for k in range(d)]
    raise ValueError(f"unknown basis {basis!r}")


def _project_branch(state: StateVector, axis: int, factor: np.ndarray | None):
    """Branch amplitude block for one outcome.

    Rank-1 outcomes factor the subsystem out of the layout; the pooled
    failure outcome keeps it (its projector has rank 2)."""
    if factor is not None:
        # the (1, d) by (d, rest) operands np.tensordot would hand to np.dot
        rest = [i for i in range(state.amps.ndim) if i != axis]
        front = state.amps.transpose([axis] + rest)
        amp = np.dot(factor.conj().reshape(1, -1), front.reshape(factor.size, -1))
        return tuple(state.layout[i] for i in rest), amp.reshape(front.shape[1:])
    keep = np.zeros(state.layout[axis].dim)
    keep[[PH_ONE_V, PH_SINK]] = 1.0
    amp = state.amps * keep.reshape([-1 if i == axis else 1 for i in range(state.amps.ndim)])
    return state.layout, amp


def branch_all(state: StateVector, target: str, basis: str):
    """Every measurement branch with weight above cutoff.

    Returns [(outcome, post_state, probability)] where probability is the
    pre-renormalization branch weight; post states are renormalized and, for
    rank-1 outcomes, no longer contain the measured subsystem.
    """
    axis = state.axis(target)
    spec = state.layout[axis]
    out = []
    for outcome, factor in basis_outcomes(spec, basis):
        layout, amp = _project_branch(state, axis, factor)
        w = float(np.vdot(amp, amp).real)
        if w > BRANCH_CUTOFF:
            out.append((outcome, StateVector(layout, amp / np.sqrt(w)), w))
    return out


def sample_branch(branches: list, rng: np.random.Generator) -> int:
    """Index of one entry of a non-empty `branch_all` list drawn with Born
    probabilities, from one uniform of `rng`; the last branch takes any
    rounding remainder."""
    u = rng.random() * sum(w for _, _, w in branches)
    acc = 0.0
    for index, (_, _, w) in enumerate(branches[:-1]):
        acc += w
        if u < acc:
            return index
    return len(branches) - 1


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for renormalized states over identical layouts."""
    if tuple(a.layout) != tuple(b.layout):
        raise ValueError("layout mismatch")
    for s, nm in ((a, "first"), (b, "second")):
        if abs(norm_sq(s) - 1.0) > 1e-9:
            raise ValueError(f"{nm} state is not renormalized")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def initial_vector(spec: SubsystemSpec, vec) -> np.ndarray:
    """`vec` as complex128, checked to have one entry per level and unit norm."""
    e = np.asarray(vec, dtype=np.complex128)
    if e.shape != (spec.dim,):
        raise ValueError(f"initial vector must have length {spec.dim}")
    if abs(float(np.vdot(e, e).real) - 1.0) > ATOL:
        raise ValueError("initial vector must be normalized")
    return e


def add_subsystem(state: StateVector, spec: SubsystemSpec, vec) -> StateVector:
    """Append a fresh subsystem in the given normalized amplitude vector."""
    if any(s.name == spec.name for s in state.layout):
        raise ValueError(f"subsystem {spec.name!r} already present")
    amps = np.multiply.outer(state.amps, initial_vector(spec, vec))
    return StateVector(state.layout + (spec,), amps)
