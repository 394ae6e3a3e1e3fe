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

A state may carry a leading branch axis: `batch` states over one layout,
stacked, so that one call acts on all of them.  Every operation here acts
on such a stack branch by branch and gives each branch the bits it would
get alone: a product is one stacked `np.matmul` over the branch axis, never
one wider 2-D product (whose kernel edges round differently), and a weight
is one `np.vdot` per branch.  A measurement outcome whose factor is the
unit vector on one level takes no product: its branch is that level's
row, with every zero written as +0.0, which is what the product gives.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

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


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    # finite, and an integer small enough to become a float; a bool is
    # neither
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool) and abs(v) <= sys.float_info.max)


@dataclass(frozen=True)
class SubsystemSpec:
    """A named photon or particle with `dim` levels.  The one home of the
    rules of a single subsystem: a non-empty string name, a kind of
    "photon" or "particle", and a level count of `PHOTON_DIM` for a photon
    or, for a particle, an integer number of positions, at least 2, plus
    the exploded level."""

    name: str
    kind: str  # "photon" or "particle"
    dim: int

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"name must be a non-empty string, got {self.name!r}")
        if self.kind not in ("photon", "particle"):
            raise ValueError(f"unknown kind {self.kind!r}")
        is_photon = self.kind == "photon"
        if not _is_int(self.dim) or (self.dim != PHOTON_DIM if is_photon else self.dim < 3):
            need = (f"has a level count of {self.dim!r}; a photon has {PHOTON_DIM}" if is_photon
                    else "needs an integer number of positions, at least 2, got "
                    f"{self.dim - 1 if _is_int(self.dim) else self.dim!r}")
            raise ValueError(f"{self.kind} {self.name!r} {need}")

    def positions(self) -> int:
        """Number of particle position levels, which is also the index of
        the exploded level."""
        expect(self, "a particle", "a position count")
        return self.dim - 1


# what a step may act on, by the text that names it (a 2-position particle
# has 3 levels)
_FITS = {
    "a photon": lambda spec: spec.kind == "photon",
    "a particle": lambda spec: spec.kind == "particle",
    "a 2-position particle": lambda spec: spec.kind == "particle" and spec.dim == 3,
    "a photon or a 2-position particle":
        lambda spec: spec.kind == "photon" or (spec.kind == "particle" and spec.dim == 3),
}


def expect(spec: SubsystemSpec, needs: str, who: str) -> None:
    """The one home of what a step may act on: raise unless `spec` is what
    `needs` names, one of the `_FITS` texts, as "{who} needs {needs}, but
    '{name}' is {what}".  `who` names the step, and the validator prefixes
    the instruction."""
    if not _FITS[needs](spec):
        what = "a photon" if spec.kind == "photon" else f"a {spec.dim - 1}-position particle"
        raise ValueError(f"{who} needs {needs}, but {spec.name!r} is {what}")


def photon(name: str) -> SubsystemSpec:
    return SubsystemSpec(name, "photon", PHOTON_DIM)


def particle(name: str, positions: int = 2) -> SubsystemSpec:
    # a non-integer goes through as it is, for SubsystemSpec to name it
    return SubsystemSpec(name, "particle", positions + 1 if _is_int(positions) else positions)


@dataclass
class StateVector:
    layout: tuple[SubsystemSpec, ...]
    amps: np.ndarray  # shape = ((batch,) if batched) + tuple of subsystem dims
    batch: int | None = None  # branches along a leading axis; None: no such axis

    def __post_init__(self):
        dims = tuple(s.dim for s in self.layout)
        if self.batch is not None:
            dims = (self.batch,) + dims
        self.amps = np.ascontiguousarray(self.amps, dtype=np.complex128).reshape(dims)
        if self.batch is None:
            n = norm_sq(self)
        else:  # the largest branch norm
            flat = self.amps.reshape(self.batch, -1)
            n = float(np.maximum.reduce(np.vecdot(flat, flat).real, initial=0.0))
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
        """The same state over its own copy of the amplitudes.  It copies as
        `copy.copy`, `copy.deepcopy` and `pickle` do, without running
        `__post_init__` again: the bits were checked when this state was
        built, and a copy of them holds the same norm.  Amplitudes that an
        operation computes still go through the constructor."""
        dup = object.__new__(StateVector)
        dup.layout, dup.amps, dup.batch = self.layout, self.amps.copy(), self.batch
        return dup

    def branch(self, b: int) -> "StateVector":
        """Branch `b` of a batched state, as a state of its own (a view)."""
        return StateVector(self.layout, self.amps[b])


def stack_branches(states: list[StateVector]) -> StateVector:
    """Plain states over one layout, stacked along a new branch axis."""
    return StateVector(states[0].layout, np.array([s.amps for s in states]), len(states))


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


def _lead(state: StateVector) -> tuple:
    # the shape of the axes before the subsystem axes: (batch,) or ()
    return () if state.batch is None else (state.batch,)


def _to_front(state: StateVector, axis: int) -> tuple[np.ndarray, list[int]]:
    # the amplitudes with the subsystem at `axis` moved to the front, after
    # the branch axis if any, and the permutation that moved them
    perm = [axis] + [a for a in range(len(state.layout)) if a != axis]
    if state.batch is not None:
        perm = [0] + [a + 1 for a in perm]
    return state.amps.transpose(perm), perm


def _sigma_max(op: np.ndarray) -> float:
    """The largest singular value of an operator, or the largest over the
    operators of a stack; NaN for an operator with a non-finite entry, whose
    SVD gives NaN or does not converge."""
    if not np.isfinite(op).all():
        return math.nan
    sigma = np.linalg.svd(op, compute_uv=False)  # descending, per operator
    return float(sigma[0] if op.ndim == 2 else sigma[:, 0].max())


# The contraction check's memo keeps operators of at most _MEMO_OP_BYTES
# (a 16x16 operator, or a stack of sixteen 4x4 ones), _MEMO_ENTRIES of them.
_MEMO_OP_BYTES = 4096
_MEMO_ENTRIES = 64


@lru_cache(maxsize=_MEMO_ENTRIES)
def _sigma_max_of(shape: tuple, data: bytes) -> float:
    """`_sigma_max` of the complex128 operator of `shape` whose C-ordered
    bytes are `data`, the same float the SVD of the operator itself gives.

    Keyed by the value alone, so every operator takes the same lookup,
    whatever its origin, and one changed in place is a new key; an SVD that
    raises is not kept, so it raises again on the next call.  It holds at
    most 64 entries of at most 4 KiB of operator bytes each, plus about
    0.26 KiB per entry for its key, node and result: at most 280 KiB in all.
    """
    return _sigma_max(np.frombuffer(data, dtype=np.complex128).reshape(shape))


def apply_local(state: StateVector, target: str, op: np.ndarray) -> StateVector:
    """Apply a dense operator on the one subsystem named `target`, identity
    elsewhere.

    The operator acts on the target's levels; on a batched state it may
    also be a stack of one operator per branch.  It must be a contraction
    (largest singular value <= 1 + 1e-12); the norm may shrink but never
    grow beyond tolerance.  The largest singular value of an operator of at
    most `_MEMO_OP_BYTES` is looked up by its shape and bytes in
    `_sigma_max_of`'s memo; a larger one runs the same SVD unkept.
    """
    axis = state.axis(target)
    block = state.layout[axis].dim
    op = np.asarray(op, dtype=np.complex128)
    if op.shape not in ((block, block), (state.batch, block, block)):
        raise ValueError(f"operator shape {op.shape} does not match target dimension {block}")
    smax = (_sigma_max_of(op.shape, op.tobytes()) if op.nbytes <= _MEMO_OP_BYTES
            else _sigma_max(op))
    if not smax <= 1 + ATOL:
        raise ValueError(f"operator is not a contraction (sigma_max = {smax})")
    front, perm = _to_front(state, axis)
    out = (op @ front.reshape(_lead(state) + (block, -1))).reshape(front.shape)
    return StateVector(state.layout, out.transpose(sorted(range(len(perm)), key=perm.__getitem__)),
                       state.batch)


# the photon unit vectors and the 2-position particle_pm factors (plus,
# minus, exploded), built once at import and read-only
_PHOTON_UNITS = np.eye(PHOTON_DIM, dtype=np.complex128)
_E3 = np.eye(3, dtype=np.complex128)
_PM_FACTORS = np.stack([(_E3[BLOCKED] + _E3[OPEN]) / np.sqrt(2),
                        (_E3[BLOCKED] - _E3[OPEN]) / np.sqrt(2), _E3[2]])
_PHOTON_UNITS.flags.writeable = _PM_FACTORS.flags.writeable = False


def basis_outcomes(spec: SubsystemSpec, basis: str) -> list[tuple[int, np.ndarray | None]]:
    """Outcome list as (outcome, factor vector); None marks the pooled photon
    failure outcome whose projection has rank 2.  The last outcome is always
    the failure one (pooled photon failure or exploded particle).  In every
    basis but particle_pm, a rank-1 outcome's factor is the unit vector on
    the level its label names, which `branch_all` reads as a row.  The one
    home of the basis rule: raises ValueError for an unknown basis, and
    through `expect`, named by the basis, for one that does not fit the
    subsystem."""
    if basis == PHOTON_COMPUTATIONAL:
        expect(spec, "a photon", basis)
        return [(0, _PHOTON_UNITS[PH_ZERO]), (1, _PHOTON_UNITS[PH_ONE_H]), (PHOTON_FAIL, None)]
    if basis == PARTICLE_PM:
        expect(spec, "a 2-position particle", basis)
        return list(zip((PM_PLUS, PM_MINUS, PM_EXPLODED), _PM_FACTORS))
    if basis in (PARTICLE_COMPUTATIONAL, QUDIT_POSITION):
        expect(spec, "a particle", basis)
        return list(enumerate(np.eye(spec.dim, dtype=np.complex128)))
    raise ValueError(f"unknown basis {basis!r}")


# the pooled photon failure outcome keeps |1V> and the sink
_POOLED_FAILURE = np.zeros(PHOTON_DIM)
_POOLED_FAILURE[[PH_ONE_V, PH_SINK]] = 1.0
_POOLED_FAILURE.flags.writeable = False


def branch_all(state: StateVector, target: str, basis: str):
    """Every measurement branch with weight above cutoff.

    Returns [(outcome, post_state, probability)] where probability is the
    pre-renormalization branch weight; post states are renormalized and, for
    rank-1 outcomes, no longer contain the measured subsystem.  A batched
    state gives one such list per branch, each the list that branch gives
    alone: one projection per outcome serves every branch (a row for a unit
    outcome, a product for a pm one), and each weight is one `np.vdot`.
    """
    axis = state.axis(target)
    spec = state.layout[axis]
    lead = _lead(state)
    front, _ = _to_front(state, axis)
    # per branch, the (d, rest) operand np.tensordot would hand to np.dot
    columns = front.reshape(lead + (spec.dim, -1))
    factored = state.layout[:axis] + state.layout[axis + 1:]
    factored_shape = lead + front.shape[len(lead) + 1:]
    out = [[] for _ in range(state.batch or 1)]
    for outcome, factor in basis_outcomes(spec, basis):
        if factor is None:  # the pooled failure keeps it, since its projector has rank 2
            layout = state.layout
            amp = state.amps * _POOLED_FAILURE.reshape(
                (-1,) + (1,) * (len(state.layout) - 1 - axis))
        else:  # rank 1: the subsystem factors out
            layout = factored
            if basis == PARTICLE_PM:
                amp = factor.conj().reshape(1, -1) @ columns
            else:  # the unit vector on level `outcome`: that row, every zero +0.0
                amp = columns[..., outcome, :] + 0.0
            amp = amp.reshape(factored_shape)
        for kept, row in zip(out, amp if lead else [amp]):
            w = float(np.vdot(row, row).real)
            if w > BRANCH_CUTOFF:
                kept.append((outcome, StateVector(layout, row / np.sqrt(w)), w))
    return out if lead else out[0]


def draw_table(branches: list) -> tuple[float, list[float]]:
    """The Born-rule draw table of a non-empty `branch_all` list: the total
    weight, and the running sums of the weights of every entry but the
    last, added in outcome order."""
    weights = [w for _, _, w in branches]
    return sum(weights), list(accumulate(weights[:-1]))


def sample_branch(table: tuple[float, list[float]], rng: np.random.Generator) -> int:
    """Index of one entry of the `branch_all` list `table` was built from,
    drawn with Born probabilities from one uniform of `rng`: the first entry
    whose running sum exceeds the uniform times the total.  The last entry
    takes any rounding remainder."""
    total, sums = table
    return bisect_right(sums, rng.random() * total)


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
    if not abs(float(np.vdot(e, e).real) - 1.0) <= ATOL:  # a NaN norm^2 fails too
        raise ValueError("initial vector must be normalized")
    return e


def add_subsystem(state: StateVector, spec: SubsystemSpec, vec) -> StateVector:
    """Append a fresh subsystem in the given normalized amplitude vector."""
    if any(s.name == spec.name for s in state.layout):
        raise ValueError(f"subsystem {spec.name!r} already present")
    amps = np.multiply.outer(state.amps, initial_vector(spec, vec))
    return StateVector(state.layout + (spec,), amps, state.batch)
