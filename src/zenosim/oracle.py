"""Brute-force cross-check of circuit execution.

This module re-runs a program with its own machinery: every gate is built
as an explicit full-space matrix, operator kron identity, and applied by
one plain matrix-vector product to the vector permuted so that the gate's
subsystems come first (then permuted back to the live subsystem order),
and measurements contract with explicit projector rows.  The interrogation
step uses either its exact diagonal limit or the linear map that the cycle
engine gives in one run on a Choi state (every basis column at once), so
agreement between the two runners checks everything downstream of that
map.

Also home to the textbook reference objects (CZ/CNOT/CCNOT matrices, Bell
and W vectors) the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .circuits import CircuitProgram, run_all_branches
from .interrogation import QiParams, effective_map
from .state import PARTICLE_PM, PHOTON_COMPUTATIONAL

DIMENSION_CAP = 1280
_CUTOFF = 1e-15

CZ_MATRIX = np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128)

CNOT_MATRIX = np.array([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
], dtype=np.complex128)

CCNOT_MATRIX = np.eye(8, dtype=np.complex128)
CCNOT_MATRIX[6:8, 6:8] = np.array([[0, 1], [1, 0]])

_BELL = {
    "phi+": np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=np.complex128) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=np.complex128) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=np.complex128) / np.sqrt(2),
}


def bell_vector(kind: str) -> np.ndarray:
    return _BELL[kind].copy()


def w_vector(m: int) -> np.ndarray:
    """Single-excitation superposition over m qubits, length 2**m."""
    v = np.zeros(2 ** m, dtype=np.complex128)
    for i in range(m):
        v[1 << (m - 1 - i)] = 1.0
    return v / np.sqrt(m)


@dataclass
class OracleLeaf:
    assignments: dict[str, int]
    layout: tuple[str, ...]
    vector: np.ndarray  # unnormalized, shaped by the surviving dims
    failed: bool


@dataclass
class BranchTree:
    leaves: list[OracleLeaf] = field(default_factory=list)


_SQH = 1.0 / np.sqrt(2.0)
_H2 = np.array([[_SQH, _SQH], [_SQH, -_SQH]], dtype=np.complex128)
_X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z2 = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _photon_op(block2: np.ndarray) -> np.ndarray:
    m = np.eye(4, dtype=np.complex128)
    m[:2, :2] = block2
    return m


def _particle_op(positions: int, block: np.ndarray) -> np.ndarray:
    m = np.eye(positions + 1, dtype=np.complex128)
    m[:positions, :positions] = block
    return m


def _dft(d: int) -> np.ndarray:
    w = np.exp(2j * np.pi / d)
    return np.array([[w ** (j * k) for k in range(d)] for j in range(d)],
                    dtype=np.complex128) / np.sqrt(d)


def _ideal_interrogation_diag(p_dims: list[int], blocking,
                              keep_residual_v: bool) -> np.ndarray:
    """Exact many-cycle limit: -1 on |1H> when every particle sits outside
    its blocking set, 0 on the pruned levels (photon sink, routed |1V>,
    particle explosions), +1 everywhere else."""
    dims = [4] + list(p_dims)
    total = prod(dims)
    diag = np.ones(total, dtype=np.complex128)
    for idx in range(total):
        levels = np.unravel_index(idx, dims)
        ph = levels[0]
        exploded = any(lv == d - 1 for lv, d in zip(levels[1:], p_dims))
        if ph == 3 or exploded or (ph == 2 and not keep_residual_v):
            diag[idx] = 0.0
        elif ph == 1 and all(lv not in blocked
                             for lv, blocked in zip(levels[1:], blocking)):
            diag[idx] = -1.0
    return np.diag(diag)


class _OracleState:
    """Flat unnormalized vector plus (name, kind, dim) bookkeeping."""

    def __init__(self):
        self.names: list[str] = []
        self.kinds: dict[str, str] = {}
        self.dims: dict[str, int] = {}
        self.vec = np.ones(1, dtype=np.complex128)

    def copy(self) -> "_OracleState":
        other = _OracleState.__new__(_OracleState)
        other.names = list(self.names)
        other.kinds = dict(self.kinds)
        other.dims = dict(self.dims)
        other.vec = self.vec.copy()
        return other

    def shape(self) -> tuple[int, ...]:
        return tuple(self.dims[n] for n in self.names)

    def add(self, name: str, kind: str, dim: int, init: np.ndarray) -> None:
        if self.vec.size * dim > DIMENSION_CAP:
            raise ValueError(
                f"preparing {name!r} would exceed the {DIMENSION_CAP}-dimensional cap")
        self.vec = np.kron(self.vec, init.astype(np.complex128))
        self.names.append(name)
        self.kinds[name] = kind
        self.dims[name] = dim

    def apply(self, front: list[str], op: np.ndarray) -> None:
        """One dense full-space product: kron(op, I_rest) acts on the vector
        reordered to the front subsystems (in the given order) followed by
        the rest, and the result is put back in the live order."""
        front_dim = prod(self.dims[n] for n in front)
        if op.shape != (front_dim, front_dim):
            raise ValueError(f"operator of shape {op.shape} does not act on "
                             f"{front!r} ({front_dim} levels)")
        rest = [n for n in self.names if n not in front]
        rest_dim = prod(self.dims[n] for n in rest)
        # kron(op, I_rest), written block by block onto the diagonal
        full = np.zeros((front_dim, rest_dim, front_dim, rest_dim),
                        dtype=np.complex128)
        idx = np.arange(rest_dim)
        full[:, idx, :, idx] = op
        full = full.reshape(front_dim * rest_dim, front_dim * rest_dim)
        digits = np.unravel_index(np.arange(self.vec.size), self.shape())
        by_name = dict(zip(self.names, digits))
        order = front + rest
        pi = np.ravel_multi_index([by_name[n] for n in order],
                                  tuple(self.dims[n] for n in order))
        y = np.empty_like(self.vec)
        y[pi] = self.vec
        self.vec = (full @ y)[pi]

    def contract(self, name: str, bra: np.ndarray) -> None:
        k = self.names.index(name)
        dims = [self.dims[n] for n in self.names]
        pre = prod(dims[:k]) if k else 1
        post = prod(dims[k + 1:]) if k + 1 < len(dims) else 1
        v3 = self.vec.reshape(pre, dims[k], post)
        self.vec = np.einsum("pdq,d->pq", v3, bra.conj()).reshape(-1)
        self.names.pop(k)
        del self.kinds[name], self.dims[name]

    def zero_levels(self, name: str, levels: list[int]) -> None:
        k = self.names.index(name)
        dims = [self.dims[n] for n in self.names]
        pre = prod(dims[:k]) if k else 1
        post = prod(dims[k + 1:]) if k + 1 < len(dims) else 1
        v3 = self.vec.reshape(pre, dims[k], post).copy()
        v3[:, levels, :] = 0.0
        self.vec = v3.reshape(-1)


def _init_vector(kind: str, dim: int, args: dict) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    if "pm" in args:
        if kind != "particle" or dim != 3:
            raise ValueError("pm preparation needs a 2-position particle")
        v[0] = _SQH
        v[1] = _SQH if args["pm"] == "+" else -_SQH
        return v
    if args.get("uniform"):
        v[: dim - 1] = 1.0 / np.sqrt(dim - 1)
        return v
    if "state" in args:
        given = np.asarray([complex(re, im) for re, im in args["state"]],
                           dtype=np.complex128)
        v[: given.size] = given
        return v
    v[int(args.get("level", 0))] = 1.0
    return v


def _normalized_blocking(blocking, n_particles):
    if blocking is None:
        return [frozenset({0})] * n_particles
    out = []
    for b in blocking:
        out.append(frozenset({int(b)}) if isinstance(b, (int, np.integer))
                   else frozenset(b))
    return out


def _interrogation_op(state: _OracleState, photon_name: str,
                      particle_names: list[str], blocking,
                      params: QiParams) -> np.ndarray:
    p_dims = [state.dims[n] for n in particle_names]
    blocks = _normalized_blocking(blocking, len(particle_names))
    if params.cycles is None:
        return _ideal_interrogation_diag(
            p_dims, blocks, keep_residual_v=params.residual_v_policy == "keep")
    return effective_map(params, len(particle_names),
                         particle_positions=[d - 1 for d in p_dims],
                         blocking=blocking)


_MEASURE_FAIL = object()


def _measurement_outcomes(basis: str, dim: int):
    """(outcome, bra or _MEASURE_FAIL marker) in canonical order."""
    if basis == PHOTON_COMPUTATIONAL:
        e0 = np.array([1, 0, 0, 0], dtype=np.complex128)
        e1 = np.array([0, 1, 0, 0], dtype=np.complex128)
        return [(0, e0), (1, e1), (2, _MEASURE_FAIL)]
    if basis == PARTICLE_PM:
        if dim != 3:
            raise ValueError("pm basis needs a 2-position particle")
        plus = np.array([_SQH, _SQH, 0], dtype=np.complex128)
        minus = np.array([_SQH, -_SQH, 0], dtype=np.complex128)
        expl = np.array([0, 0, 1], dtype=np.complex128)
        return [(0, plus), (1, minus), (2, expl)]
    # position bases: one outcome per level, exploded last
    outcomes = []
    for lv in range(dim):
        bra = np.zeros(dim, dtype=np.complex128)
        bra[lv] = 1.0
        outcomes.append((lv, bra))
    return outcomes


def _is_failure(basis: str, outcome: int, dim: int) -> bool:
    if basis == PHOTON_COMPUTATIONAL:
        return outcome == 2
    return outcome == dim - 1  # exploded level for every particle basis


def brute_force_run(program: CircuitProgram,
                    params: QiParams | None = None) -> BranchTree:
    """Exhaustive branch enumeration with the full-matrix runner."""
    params = params or QiParams()
    tree = BranchTree()

    def leaf(state: _OracleState, assignments: dict, failed: bool) -> None:
        tree.leaves.append(OracleLeaf(
            assignments=dict(assignments), layout=tuple(state.names),
            vector=state.vec.reshape(state.shape()), failed=failed))

    def walk(state: _OracleState, assignments: dict, pos: int,
             wprod: float) -> None:
        # wprod is the squared norm right after the last measurement, i.e.
        # the product of kept branch weights, so the per-branch cutoff below
        # matches the engine's rule on its renormalized states.
        for i in range(pos, len(program.instructions)):
            instr = program.instructions[i]
            op, a = instr.op, instr.args
            if op == "prepare":
                spec = program.spec(a["target"])
                state.add(spec.name, spec.kind, spec.dim,
                          _init_vector(spec.kind, spec.dim, a))
            elif op == "photon_h":
                state.apply([a["target"]], _photon_op(_H2))
            elif op == "photon_x":
                state.apply([a["target"]], _photon_op(_X2))
            elif op == "photon_z":
                state.apply([a["target"]], _photon_op(_Z2))
            elif op == "particle_h":
                d = state.dims[a["target"]] - 1
                block = _H2 if d == 2 else _dft(d)
                state.apply([a["target"]], _particle_op(d, block))
            elif op == "particle_x":
                state.apply([a["target"]], _particle_op(2, _X2))
            elif op == "particle_z":
                state.apply([a["target"]], _particle_op(2, _Z2))
            elif op in ("qicz", "qicz_multi"):
                if op == "qicz":
                    names, blocking = [a["particle"]], None
                else:
                    names, blocking = list(a["particles"]), a.get("blocking")
                m = _interrogation_op(state, a["photon"], names, blocking,
                                      params)
                state.apply([a["photon"], *names], m)
            elif op == "cx":
                if assignments[a["bit"]] & 1:
                    kind = state.kinds[a["target"]]
                    flip = _photon_op(_X2) if kind == "photon" else _particle_op(2, _X2)
                    state.apply([a["target"]], flip)
            elif op == "cz":
                if assignments[a["bit"]] & 1:
                    kind = state.kinds[a["target"]]
                    flip = _photon_op(_Z2) if kind == "photon" else _particle_op(2, _Z2)
                    state.apply([a["target"]], flip)
            elif op == "cphase":
                phase = np.eye(4, dtype=np.complex128)
                phase[1, 1] = np.exp(1j * a["coeff"] * assignments[a["key"]])
                state.apply([a["target"]], phase)
            elif op == "xor":
                assignments[a["out"]] = assignments[a["a"]] ^ assignments[a["b"]]
            elif op == "measure":
                target, basis = a["target"], a["basis"]
                dim = state.dims[target]
                for outcome, bra in _measurement_outcomes(basis, dim):
                    post = state.copy()
                    if bra is _MEASURE_FAIL:
                        post.zero_levels(target, [0, 1])
                    else:
                        post.contract(target, bra)
                    post_sq = float(np.vdot(post.vec, post.vec).real)
                    if post_sq / wprod < _CUTOFF:
                        continue
                    sub = dict(assignments)
                    sub[a["bit"]] = outcome
                    if _is_failure(basis, outcome, dim):
                        leaf(post, sub, failed=True)
                    else:
                        walk(post, sub, i + 1, post_sq)
                return
        leaf(state, assignments, failed=False)

    walk(_OracleState(), {}, 0, 1.0)
    return tree


def compare(program: CircuitProgram, params: QiParams | None = None) -> float:
    """Largest elementwise deviation between the engine's branches and the
    brute-force branches, after aligning classical records and a global
    phase per branch.  Raises if the branch structures differ."""
    params = params or QiParams()
    sim = run_all_branches(program, params)
    tree = brute_force_run(program, params)
    remaining: dict = {}
    for leaf in tree.leaves:
        key = (tuple(sorted(leaf.assignments.items())), leaf.failed)
        if key in remaining:
            raise ValueError(f"ambiguous branch key {key!r}")
        remaining[key] = leaf
    worst = 0.0
    for res in sim:
        key = (tuple(sorted(res.classical.items())), res.failed)
        leaf = remaining.pop(key, None)
        if leaf is None:
            raise ValueError(f"branch {key!r} missing from brute-force run")
        names = tuple(s.name for s in res.final_state.layout)
        if names != leaf.layout:
            raise ValueError(
                f"branch {key!r}: layout {names!r} != {leaf.layout!r}")
        a = res.final_state.amps * np.sqrt(res.branch_weight)
        b = leaf.vector
        ip = complex(np.vdot(b.reshape(-1), a.reshape(-1)))
        phase = ip / abs(ip) if abs(ip) > 1e-30 else 1.0
        worst = max(worst, float(np.abs(a - phase * b).max()) if a.size else 0.0)
    if remaining:
        raise ValueError(f"brute-force branches left unmatched: {sorted(remaining)}")
    return worst
