"""Brute-force cross-check of circuit execution.

This module re-runs a program with its own machinery.  A branch's vector
stays in the order of subsystems that its last gate left it in (its
physical order), which need not be the live layout: a gate gathers the
vector by index arithmetic so that the gate's subsystems come first and
the rest keep their order, and the oracle's own gate matrix multiplies
that vector reshaped to (front, rest), which holds the only nonzero blocks
of operator kron identity.  The product is the branch's new vector, in that
front-first order.  A measurement contracts the target with explicit
projector rows, every outcome's in one einsum, and a leaf is reordered
once, into the live layout.  The interrogation step uses either its exact
diagonal limit or the linear map that the cycle engine gives in one
batched run (every basis column at once), so agreement between the two
runners checks everything downstream of that map.

A branch's layout at an instruction is the same on every path that
reaches it, since a prepare appends, a kept outcome contracts its target
and a failure outcome ends the branch.  So is its physical order, since
every branch gathers at every gate: a cx or cz whose bit is 0 gathers and
skips only the product.  So `brute_force_run` plans the whole program in
one pass before it walks a branch, tracking the layout, the physical order
and its shape as the program changes them, and keeps one plan per
instruction in a list that dies with the call.  A plan holds what its
instruction needs whatever the branch: a gate's gather index and operator,
a prepare's level vector after its cap check, a measurement's axis split,
stacked outcome bras and where its failure outcome ends a branch.  The
pass plans an instruction that no path reaches as well, as the validator
checks it.  The call also keeps each interrogation map it fetches, keyed
by the particles' dims and blocking sets, so a map is fetched once per
shape per walk.  A gather index, a gate's or a leaf's, is a pure function
of the physical shape and the axes it brings forward, kept read-only in a
bounded process-wide memo (`_gather_index`).  A branch is then a vector,
and its work is arithmetic: a gather and a product per gate, an outer
product per prepare, an einsum and a vecdot per measurement, and a gather
per leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod, sqrt
from typing import NamedTuple

import numpy as np

from .circuits import CircuitProgram, run_all_branches
from .interrogation import KEEP, QiParams, effective_map
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
    ph, *levels = np.indices((4, *p_dims)).reshape(len(p_dims) + 1, -1)
    exploded = np.zeros(ph.size, dtype=bool)
    clear = np.ones(ph.size, dtype=bool)
    for lv, d, blocked in zip(levels, p_dims, blocking):
        exploded |= lv == d - 1
        clear &= ~np.isin(lv, list(blocked))
    pruned = (ph == 3) | exploded | ((ph == 2) & ~(clear & keep_residual_v))
    return np.diag(np.where(pruned, 0.0, np.where((ph != 0) & clear, -1.0, 1.0))
                   .astype(np.complex128))


class _Gate(NamedTuple):
    index: np.ndarray  # the gather to the front-first order, shaped (gate levels, rest)
    op: np.ndarray | None  # None for cphase, whose phase is the branch's recorded value
    order: tuple[str, ...]  # the physical order it leaves: the gate's subsystems, then the rest
    shape: tuple[int, ...]  # that order's


class _Prepare(NamedTuple):
    init: np.ndarray
    layout: tuple[str, ...]
    order: tuple[str, ...]
    shape: tuple[int, ...]


class _Measure(NamedTuple):
    split: tuple[int, int, int]  # (pre, d, post) around the target axis, in the physical order
    bras: np.ndarray  # conjugated bras, one row each, read-only (see `_outcomes`)
    outcomes: tuple  # (outcome, failed, contracts) in outcome order
    layout: tuple[str, ...]  # left once a bra contracts the target
    order: tuple[str, ...]  # that layout's physical order
    shape: tuple[int, ...]  # that order's
    failure: tuple  # `_leaf`'s (order, shape, layout) for the failure outcome, always the last


class _Leaf(NamedTuple):
    index: np.ndarray  # the gather to the live layout, in its shape
    layout: tuple[str, ...]


def _gate(order: tuple[str, ...], shape: tuple[int, ...], front: list[str],
          op: np.ndarray) -> _Gate:
    """kron(op, I_rest) on the vector reordered to the front subsystems (in
    the given order) followed by the rest in their physical `order`, of the
    given `shape`, as `op` times the (front, rest) reshape, which `_apply`
    leaves in that front-first order.  The index is `np.arange(size)` in
    the physical shape, transposed to the front-first order."""
    axes = [order.index(n) for n in front]
    front_dim = prod([shape[k] for k in axes])
    if op.shape != (front_dim, front_dim):
        raise ValueError(f"operator of shape {op.shape} does not act on "
                         f"{front!r} ({front_dim} levels)")
    axes += [k for k in range(len(order)) if k not in axes]
    index = _gather_index(shape, tuple(axes))
    return _Gate(index.reshape(front_dim, -1), op, tuple([order[k] for k in axes]), index.shape)


def _leaf(order: tuple[str, ...], shape: tuple[int, ...],
          layout: tuple[str, ...]) -> _Leaf:
    """The reorder of a vector in the physical `order`, of the given
    `shape`, into the live `layout`."""
    return _Leaf(_gather_index(shape, tuple([order.index(n) for n in layout])), layout)


@lru_cache(maxsize=64)
def _gather_index(shape: tuple, axes: tuple) -> np.ndarray:
    """`np.arange` in `shape`, transposed by `axes`, C-contiguous and
    read-only: a flat vector in `shape` indexed by it is the vector in the
    transposed order, in the transposed shape.  It holds at most 64 indices
    of at most 10 KiB each at `DIMENSION_CAP`, plus about 0.6 KiB per entry
    for its key, node and array header: at most 680 KiB in all."""
    index = np.arange(prod(shape)).reshape(shape).transpose(axes).copy()
    index.flags.writeable = False
    return index


def _apply(vec: np.ndarray, index: np.ndarray, op: np.ndarray) -> np.ndarray:
    """`op` times the (gate levels, rest) gather of the flat `vec`, flat."""
    return op.dot(vec[index]).reshape(-1)


def _extend(vec: np.ndarray, init: np.ndarray) -> np.ndarray:
    """The product vector of `vec` and a newly prepared subsystem's `init`,
    with the bits of `np.kron`."""
    return np.multiply.outer(vec, init).reshape(-1)


def _init_vector(dim: int, args: dict) -> np.ndarray:
    if "pm" in args:  # the plus or minus bra, read-only
        return _PM_BRAS[0 if args["pm"] == "+" else 1]
    v = np.zeros(dim, dtype=np.complex128)
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
            p_dims, blocks, keep_residual_v=params.residual_v_policy == KEEP)
    return effective_map(params, len(p_dims),
                         particle_positions=[d - 1 for d in p_dims],
                         blocking=list(blocks))


def _outcomes(bras: np.ndarray, pooled_failure: bool = False) -> tuple:
    """The conjugated bras, read-only, and (outcome, failed, contracts) in
    outcome order, the failure outcome last.  Outcome k < len(bras)
    contracts the target with bra k and weighs what that keeps; a
    particle's failure is its exploded level, whose bra is the last.  The
    photon's pooled failure comes after its bras: it keeps the photon live
    with its logical levels zeroed, and weighs what the unit bras of its
    other levels keep, which are appended to the bras for it."""
    n = len(bras)
    count = n + pooled_failure
    if pooled_failure:
        bras = np.vstack([bras, np.eye(bras.shape[1], dtype=bras.dtype)[n:]])
    conj = bras.conj()
    conj.flags.writeable = False
    return conj, tuple((outcome, outcome == count - 1, outcome < n) for outcome in range(count))


# the photon and particle_pm bras, one row each, and their outcomes, built
# once at import and read-only
_PHOTON_BRAS = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.complex128)
_PM_BRAS = np.array([[_SQH, _SQH, 0], [_SQH, -_SQH, 0], [0, 0, 1]],
                    dtype=np.complex128)
_PHOTON_BRAS.flags.writeable = _PM_BRAS.flags.writeable = False
_BASIS_OUTCOMES = {PHOTON_COMPUTATIONAL: _outcomes(_PHOTON_BRAS, pooled_failure=True),
                   PARTICLE_PM: _outcomes(_PM_BRAS)}


def _measure(layout: tuple[str, ...], order: tuple[str, ...], shape: tuple[int, ...],
             target: str, basis: str) -> _Measure:
    """One bra per outcome in canonical order; a position basis has one
    outcome per level, exploded last.  `shape` is the physical `order`'s."""
    k, j = order.index(target), layout.index(target)
    d = shape[k]
    bras, outcomes = (_BASIS_OUTCOMES.get(basis)
                      or _outcomes(np.eye(d, dtype=np.complex128)))
    kept_layout = layout[:j] + layout[j + 1:]
    kept_order, kept_shape = order[:k] + order[k + 1:], shape[:k] + shape[k + 1:]
    # the failure outcome contracts its target, save the photon's pooled
    # failure, which keeps it live
    failure = ((kept_order, kept_shape, kept_layout) if outcomes[-1][2]
               else (order, shape, layout))
    return _Measure((prod(shape[:k]), d, prod(shape[k + 1:])), bras, outcomes,
                    kept_layout, kept_order, kept_shape, failure)


# the fixed gates by op; a cx or cz flips its target with the target kind's
# own x or z
_FIXED = {"photon_h": _PHOTON_H, "photon_x": _PHOTON_X, "photon_z": _PHOTON_Z,
          "particle_x": _PARTICLE_X, "particle_z": _PARTICLE_Z}


def _plan(instr, layout: tuple[str, ...], order: tuple[str, ...], shape: tuple[int, ...],
          specs: dict, params: QiParams, maps: dict):
    """What `instr` needs on the live `layout`, whose vectors are in the
    physical `order` of the given `shape`, that no branch changes (None for
    an xor).  An interrogation's map is taken from `maps`, keyed by its
    particles' dims and blocking sets, and fetched into it on a miss."""
    op, a = instr.op, instr.args
    if op == "xor":
        return None
    if op == "prepare":
        spec = specs[a["target"]]
        if prod(shape) * spec.dim > DIMENSION_CAP:
            raise ValueError(
                f"preparing {spec.name!r} would exceed the {DIMENSION_CAP}-dimensional cap")
        return _Prepare(_init_vector(spec.dim, a), layout + (spec.name,),
                        order + (spec.name,), shape + (spec.dim,))
    if op == "measure":
        return _measure(layout, order, shape, a["target"], a["basis"])
    if op in ("qicz", "qicz_multi"):
        if op == "qicz":
            names, blocking = [a["particle"]], None
        else:
            names, blocking = list(a["particles"]), a.get("blocking")
        key = (tuple(specs[n].dim for n in names), _normalized_blocking(blocking, len(names)))
        if key not in maps:
            maps[key] = _interrogation_op(*key, params)
        return _gate(order, shape, [a["photon"], *names], maps[key])
    target = a["target"]
    if op == "particle_h":
        d = specs[target].dim - 1
        return _gate(order, shape, [target],
                     _PARTICLE_H if d == 2 else _block_op(d + 1, _dft(d)))
    if op == "cphase":  # the phase has the shape of photon_z
        return _gate(order, shape, [target], _PHOTON_Z)._replace(op=None)
    if op in ("cx", "cz"):
        op = f"{specs[target].kind}_{op[1]}"
    return _gate(order, shape, [target], _FIXED[op])


def brute_force_run(program: CircuitProgram,
                    params: QiParams | None = None) -> BranchTree:
    """Exhaustive branch enumeration with the full-matrix runner, depth
    first from an explicit stack, so any number of measurements walks.
    A `CircuitProgram` is validated when it is built, so each instruction
    fits its subsystems here (a pm preparation or basis acts on a
    2-position particle).  Every instruction is planned before the walk,
    reached or not; an error in planning one, such as a state past
    `DIMENSION_CAP`, starts `instructions[i]:` as the validator's do."""
    params = params or QiParams()
    specs = {s.name: s for s in program.subsystems}
    maps: dict = {}  # (particle dims, blocking sets) -> interrogation map
    steps = []  # (op, args, plan) per instruction
    layout, order, shape = (), (), ()  # the live layout, its physical order and shape
    for i, instr in enumerate(program.instructions):
        try:
            plan = _plan(instr, layout, order, shape, specs, params, maps)
        except ValueError as exc:
            raise ValueError(f"instructions[{i}]: {exc}") from None
        steps.append((instr.op, instr.args, plan))
        if instr.op in ("prepare", "measure"):
            layout = plan.layout
        if plan is not None:
            order, shape = plan.order, plan.shape
    end = _leaf(order, shape, layout)
    tree = BranchTree()

    def leaf(plan: _Leaf, vec, assignments: dict, failed: bool) -> None:
        # a 0-d index would gather a numpy scalar, not a 0-d array
        vector = vec[plan.index] if plan.layout else vec.reshape(())
        tree.leaves.append(OracleLeaf(assignments=dict(assignments), layout=plan.layout,
                                      vector=vector, failed=failed))

    # (flat vector in the physical order, assignments, next
    # instruction or, for a failure outcome, its measurement's `failure`,
    # squared norm right after the last measurement), the next one last.
    # That norm is the product of kept branch weights, so the per-branch
    # cutoff below matches the engine's rule on its renormalized states.
    todo = [(np.ones(1, dtype=np.complex128), {}, 0, 1.0)]
    while todo:
        vec, assignments, pos, wprod = todo.pop()
        if not isinstance(pos, int):
            leaf(_leaf(*pos), vec, assignments, failed=True)
            continue
        for i in range(pos, len(steps)):
            op, a, plan = steps[i]
            if op == "measure":
                v3 = vec.reshape(plan.split)
                posts = np.einsum("pdq,od->opq", v3, plan.bras).reshape(len(plan.bras), -1)
                weights = np.vecdot(posts, posts).real.tolist()
                children = []
                for outcome, failed, contracts in plan.outcomes:
                    post_sq = sum(weights[outcome:]) if failed else weights[outcome]
                    if post_sq / wprod < _CUTOFF:
                        continue
                    if contracts:
                        post = posts[outcome]
                    else:  # the photon's pooled failure
                        post = v3.copy()
                        post[:, :2, :] = 0.0
                        post = post.reshape(-1)
                    children.append((post, {**assignments, a["bit"]: outcome},
                                     plan.failure if failed else i + 1, post_sq))
                todo += reversed(children)  # depth first, in outcome order
                break
            if op == "prepare":
                vec = _extend(vec, plan.init)
            elif op == "xor":
                assignments[a["out"]] = assignments[a["a"]] ^ assignments[a["b"]]
            elif op == "cphase":
                phase = np.eye(4, dtype=np.complex128)
                phase[1, 1] = np.exp(1j * a["coeff"] * assignments[a["key"]])
                vec = _apply(vec, plan.index, phase)
            elif op in ("cx", "cz") and not assignments[a["bit"]] & 1:
                # no product, but the order every branch has here
                vec = vec[plan.index].reshape(-1)
            else:
                vec = _apply(vec, plan.index, plan.op)
        else:
            leaf(end, vec, assignments, failed=False)
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
