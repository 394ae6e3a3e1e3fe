"""Brute-force cross-check of circuit execution.

This module re-runs a program with its own machinery: the vector is
permuted by index arithmetic so that a gate's subsystems come first, the
oracle's own gate matrix multiplies that vector reshaped to (front, rest),
which holds the only nonzero blocks of operator kron identity, the result
is permuted back to the live subsystem order, and measurements contract
with explicit projector rows.  The interrogation step uses either its
exact diagonal limit or the linear map that the cycle engine gives in one
batched run (every basis column at once), so agreement between the two
runners checks everything downstream of that map.

One `brute_force_run` call keeps a plan table that dies with the call,
keyed by instruction index and live layout, so a plan never serves a
layout it was not built for.  A plan holds what its instruction needs
whatever the branch: a gate's gather index and operator, a prepare's
level vector after its cap check, a measurement's axis split, outcome
bras and the layout it leaves.  The call also keeps each interrogation
map it fetches, keyed by the particles' dims and blocking sets, so a map
is fetched once per shape per walk.  A gather index is a pure function of
the live shape and the gate's axes, kept read-only in a bounded
process-wide memo (`_gather_index`).
A branch's layout at an instruction is the same on every path that
reaches it, since a prepare appends, a kept outcome contracts its target
and a failure outcome ends the branch, so each plan is built once per
walk.  A branch is then a layout and a vector, and its work is
arithmetic: a gather, product and scatter per gate, an outer product per
prepare, and an einsum and a vdot per measurement outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod, sqrt
from typing import NamedTuple

import numpy as np

from .circuits import CircuitProgram, run_all_branches
from .interrogation import QiParams, effective_map
from .state import PARTICLE_PM, PHOTON_COMPUTATIONAL

DIMENSION_CAP = 1280
_CUTOFF = 1e-15


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


def _block_op(dim: int, block: np.ndarray) -> np.ndarray:
    # `block` on the first levels (a photon's logical pair, a particle's
    # positions), the identity on the rest, read-only
    m = np.eye(dim, dtype=np.complex128)
    m[:len(block), :len(block)] = block
    m.flags.writeable = False
    return m


# the oracle's own fixed operators, built once at import and read-only
_PHOTON_H, _PHOTON_X, _PHOTON_Z = (_block_op(4, b) for b in (_H2, _X2, _Z2))
_PARTICLE_H, _PARTICLE_X, _PARTICLE_Z = (_block_op(3, b) for b in (_H2, _X2, _Z2))


def _dft(d: int) -> np.ndarray:
    w = np.exp(2j * np.pi / d)
    return np.array([[w ** (j * k) for k in range(d)] for j in range(d)],
                    dtype=np.complex128) / np.sqrt(d)


def _ideal_interrogation_diag(p_dims: tuple[int, ...], blocking,
                              keep_residual_v: bool) -> np.ndarray:
    """Exact many-cycle limit: -1 on |1H> and on a kept |1V> when every
    particle sits outside its blocking set (the full pi turn), 0 on the
    pruned levels (photon sink, routed |1V>, a kept |1V> that a blocking
    particle absorbs, particle explosions), +1 everywhere else."""
    dims = [4] + list(p_dims)
    total = prod(dims)
    diag = np.ones(total, dtype=np.complex128)
    for idx in range(total):
        levels = np.unravel_index(idx, dims)
        ph = levels[0]
        exploded = any(lv == d - 1 for lv, d in zip(levels[1:], p_dims))
        clear = all(lv not in blocked for lv, blocked in zip(levels[1:], blocking))
        if ph == 3 or exploded or (ph == 2 and not (keep_residual_v and clear)):
            diag[idx] = 0.0
        elif ph in (1, 2) and clear:
            diag[idx] = -1.0
    return np.diag(diag)


class _Gate(NamedTuple):
    index: np.ndarray  # entry j of the front-first vector is entry index[j] of the live one
    op: np.ndarray | None  # None for cphase, whose phase is the branch's recorded value


class _Prepare(NamedTuple):
    init: np.ndarray
    layout: tuple[str, ...]


class _Measure(NamedTuple):
    split: tuple[int, int, int]  # (pre, d, post) around the target axis
    outcomes: list  # (outcome, conjugated bra or None, failed), in outcome order
    layout: tuple[str, ...]  # left once a bra contracts the target


def _gate(layout: tuple[str, ...], dims: dict[str, int], front: list[str],
          op: np.ndarray) -> _Gate:
    """kron(op, I_rest) on the vector reordered to the front subsystems (in
    the given order) followed by the rest, as `op` times the (front, rest)
    reshape; `_apply` puts the result back in the live order.  One index
    does both moves: `np.arange(size)` in the live shape, transposed to the
    front-first order."""
    front_dim = prod(dims[n] for n in front)
    if op.shape != (front_dim, front_dim):
        raise ValueError(f"operator of shape {op.shape} does not act on "
                         f"{front!r} ({front_dim} levels)")
    axes = [layout.index(n) for n in front]
    axes += [k for k in range(len(layout)) if k not in axes]
    return _Gate(_gather_index(tuple(dims[n] for n in layout), tuple(axes)), op)


@lru_cache(maxsize=64)
def _gather_index(shape: tuple, axes: tuple) -> np.ndarray:
    """`np.arange` in `shape`, transposed by `axes` and flattened, read-only.
    It holds at most 64 indices of at most 10 KiB each at `DIMENSION_CAP`,
    plus about 0.6 KiB per entry for its key, node and array header: at
    most 680 KiB in all."""
    index = np.arange(prod(shape)).reshape(shape).transpose(axes).reshape(-1)
    index.flags.writeable = False
    return index


def _apply(vec: np.ndarray, index: np.ndarray, op: np.ndarray) -> np.ndarray:
    out = np.empty_like(vec)
    out[index] = (op @ vec[index].reshape(op.shape[0], -1)).reshape(-1)
    return out


def _extend(vec: np.ndarray, init: np.ndarray) -> np.ndarray:
    """The product vector of `vec` and a newly prepared subsystem's `init`,
    with the bits of `np.kron`."""
    return np.multiply.outer(vec, init).reshape(-1)


def _init_vector(dim: int, args: dict) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    if "pm" in args:
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


def _normalized_blocking(blocking, n_particles) -> tuple[frozenset, ...]:
    if blocking is None:
        return (frozenset({0}),) * n_particles
    return tuple(frozenset({int(b)}) if isinstance(b, (int, np.integer)) else frozenset(b)
                 for b in blocking)


def _interrogation_op(p_dims: tuple[int, ...], blocks: tuple[frozenset, ...],
                      params: QiParams) -> np.ndarray:
    if params.cycles is None:
        return _ideal_interrogation_diag(
            p_dims, blocks, keep_residual_v=params.residual_v_policy == "keep")
    return effective_map(params, len(p_dims),
                         particle_positions=[d - 1 for d in p_dims],
                         blocking=list(blocks))


# the photon and particle_pm bras, one row each, built once at import
_PHOTON_BRAS = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.complex128)
_PM_BRAS = np.array([[_SQH, _SQH, 0], [_SQH, -_SQH, 0], [0, 0, 1]],
                    dtype=np.complex128)
_PHOTON_BRAS.flags.writeable = _PM_BRAS.flags.writeable = False


def _measure(layout: tuple[str, ...], dims: dict[str, int], target: str,
             basis: str) -> _Measure:
    """One bra per outcome in canonical order, the failure outcome last: the
    photon's pooled failure (None: its logical levels are zeroed and it stays
    live) or a particle's exploded level."""
    k = layout.index(target)
    shape = [dims[n] for n in layout]
    d = shape[k]
    if basis == PHOTON_COMPUTATIONAL:
        bras = [_PHOTON_BRAS[0], _PHOTON_BRAS[1], None]
    elif basis == PARTICLE_PM:
        bras = list(_PM_BRAS)
    else:  # position bases: one outcome per level, exploded last
        bras = list(np.eye(d, dtype=np.complex128))
    outcomes = [(outcome, None if bra is None else bra.conj(), outcome == len(bras) - 1)
                for outcome, bra in enumerate(bras)]
    return _Measure((prod(shape[:k]), d, prod(shape[k + 1:])), outcomes,
                    layout[:k] + layout[k + 1:])


# the fixed gates by op; a cx or cz flips its target with the target kind's
# own x or z
_FIXED = {"photon_h": _PHOTON_H, "photon_x": _PHOTON_X, "photon_z": _PHOTON_Z,
          "particle_x": _PARTICLE_X, "particle_z": _PARTICLE_Z}


def _plan(instr, layout: tuple[str, ...], specs: dict, params: QiParams, maps: dict):
    """What `instr` needs on the live `layout` that no branch changes.  An
    interrogation's map is taken from `maps`, keyed by its particles' dims
    and blocking sets, and fetched into it on a miss."""
    op, a = instr.op, instr.args
    dims = {n: specs[n].dim for n in layout}
    if op == "prepare":
        spec = specs[a["target"]]
        if prod(dims.values()) * spec.dim > DIMENSION_CAP:
            raise ValueError(
                f"preparing {spec.name!r} would exceed the {DIMENSION_CAP}-dimensional cap")
        return _Prepare(_init_vector(spec.dim, a), layout + (spec.name,))
    if op == "measure":
        return _measure(layout, dims, a["target"], a["basis"])
    if op in ("qicz", "qicz_multi"):
        if op == "qicz":
            names, blocking = [a["particle"]], None
        else:
            names, blocking = list(a["particles"]), a.get("blocking")
        key = (tuple(dims[n] for n in names), _normalized_blocking(blocking, len(names)))
        if key not in maps:
            maps[key] = _interrogation_op(*key, params)
        return _gate(layout, dims, [a["photon"], *names], maps[key])
    target = a["target"]
    if op == "particle_h":
        d = dims[target] - 1
        return _gate(layout, dims, [target],
                     _PARTICLE_H if d == 2 else _block_op(d + 1, _dft(d)))
    if op == "cphase":  # the phase has the shape of photon_z
        return _gate(layout, dims, [target], _PHOTON_Z)._replace(op=None)
    if op in ("cx", "cz"):
        op = f"{specs[target].kind}_{op[1]}"
    return _gate(layout, dims, [target], _FIXED[op])


def brute_force_run(program: CircuitProgram,
                    params: QiParams | None = None) -> BranchTree:
    """Exhaustive branch enumeration with the full-matrix runner, depth
    first from an explicit stack, so any number of measurements walks.
    A `CircuitProgram` is validated when it is built, so each instruction
    fits its subsystems here (a pm preparation or basis acts on a
    2-position particle).  An error in planning an instruction, such as a
    state past `DIMENSION_CAP`, starts `instructions[i]:` as the
    validator's do."""
    params = params or QiParams()
    specs = {s.name: s for s in program.subsystems}
    plans: dict = {}  # (instruction index, live layout) -> its plan
    maps: dict = {}  # (particle dims, blocking sets) -> interrogation map
    tree = BranchTree()

    def leaf(layout, vec, assignments: dict, failed: bool) -> None:
        tree.leaves.append(OracleLeaf(
            assignments=dict(assignments), layout=layout,
            vector=vec.reshape([specs[n].dim for n in layout]), failed=failed))

    # (layout, vector, assignments, next instruction or None for a failure
    # leaf, squared norm right after the last measurement), the next one
    # last.  That norm is the product of kept branch weights, so the
    # per-branch cutoff below matches the engine's rule on its renormalized
    # states.
    todo = [((), np.ones(1, dtype=np.complex128), {}, 0, 1.0)]
    while todo:
        layout, vec, assignments, pos, wprod = todo.pop()
        if pos is None:
            leaf(layout, vec, assignments, failed=True)
            continue
        for i in range(pos, len(program.instructions)):
            instr = program.instructions[i]
            op, a = instr.op, instr.args
            if op == "xor":
                assignments[a["out"]] = assignments[a["a"]] ^ assignments[a["b"]]
                continue
            plan = plans.get((i, layout))
            if plan is None:
                try:
                    plan = plans[i, layout] = _plan(instr, layout, specs, params, maps)
                except ValueError as exc:
                    raise ValueError(f"instructions[{i}]: {exc}") from None
            if op == "prepare":
                vec, layout = _extend(vec, plan.init), plan.layout
            elif op == "measure":
                v3 = vec.reshape(plan.split)
                children = []
                for outcome, bra, failed in plan.outcomes:
                    if bra is None:
                        post = v3.copy()
                        post[:, :2, :] = 0.0
                        post, post_layout = post.reshape(-1), layout
                    else:
                        post = np.einsum("pdq,d->pq", v3, bra).reshape(-1)
                        post_layout = plan.layout
                    post_sq = float(np.vdot(post, post).real)
                    if post_sq / wprod < _CUTOFF:
                        continue
                    children.append((post_layout, post, {**assignments, a["bit"]: outcome},
                                     None if failed else i + 1, post_sq))
                todo += reversed(children)  # depth first, in outcome order
                break
            elif op == "cphase":
                phase = np.eye(4, dtype=np.complex128)
                phase[1, 1] = np.exp(1j * a["coeff"] * assignments[a["key"]])
                vec = _apply(vec, plan.index, phase)
            elif op not in ("cx", "cz") or assignments[a["bit"]] & 1:
                vec = _apply(vec, plan.index, plan.op)
        else:
            leaf(layout, vec, assignments, failed=False)
    return tree


def compare(program: CircuitProgram, params: QiParams | None = None) -> float:
    """Largest elementwise deviation between the engine's branches and the
    brute-force branches, up to a global phase per branch.  Both runners
    list their branches in depth-first outcome order, so they pair by
    position; raises, naming the branch index, if a pair differs in
    classical record, failure flag or layout, or one runner has more
    branches."""
    params = params or QiParams()
    sim = run_all_branches(program, params)
    leaves = brute_force_run(program, params).leaves
    worst = 0.0
    for i, (res, leaf) in enumerate(zip(sim, leaves)):
        got = (res.classical, res.failed, tuple(s.name for s in res.final_state.layout))
        want = (leaf.assignments, leaf.failed, leaf.layout)
        if got != want:
            raise ValueError(f"branch {i}: engine (record, failed, layout) {got!r} "
                             f"!= brute force {want!r}")
        a = res.final_state.amps * sqrt(res.branch_weight)
        b = leaf.vector
        ip = complex(np.vdot(b, a))  # vdot flattens both
        phase = ip / abs(ip) if abs(ip) > 1e-30 else 1.0
        worst = max(worst, float(np.abs(a - phase * b).max()) if a.size else 0.0)
    if len(sim) != len(leaves):
        raise ValueError(f"branch {min(len(sim), len(leaves))}: the engine has "
                         f"{len(sim)} branches, the brute-force run {len(leaves)}")
    return worst
