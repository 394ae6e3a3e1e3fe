"""Test-side helpers that the library itself has no use for."""

from decimal import Decimal, localcontext
from math import prod
from typing import NamedTuple

import numpy as np

from zenosim.analysis import yield_formula
from zenosim.circuits import DIRECT_CX, HALF_MEMORY_KEEP_CONTROL
from zenosim.gates import ImperfectionProfile
from zenosim.interrogation import KEEP, PI_OVER_2N, QiParams, effective_map
from zenosim.oracle import DIMENSION_CAP, BranchTree, OracleLeaf
from zenosim.state import PARTICLE_PM, PHOTON_COMPUTATIONAL, StateVector


# the memory CNOT at N = 333 with absorb 0.9 under the keep policy: its
# photons still hold |1V> when measured, so the walk ends in failure leaves
# as well as kept leaves whose weights are below 1
FAILURE_LEAVES = QiParams(cycles=333, absorb_prob=0.9, residual_v_policy=KEEP)


def reorder(state: StateVector, names: list[str]) -> StateVector:
    """Permute the layout to the given subsystem order."""
    if sorted(names) != sorted(s.name for s in state.layout):
        raise ValueError("names do not match layout")
    perm = [state.axis(n) for n in names]
    layout = tuple(state.layout[p] for p in perm)
    return StateVector(layout, np.transpose(state.amps, perm))


def signed_zero_amps(rng, shape, zeros=0.3) -> np.ndarray:
    """Random complex amplitudes of unit norm in which about a `zeros` share
    of the real parts and of the imaginary parts are +0.0 or -0.0, drawn
    apart."""
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for part in (amps.real, amps.imag):
        hit = rng.random(shape) < zeros
        part[hit] = np.where(rng.random(int(hit.sum())) < 0.5, 0.0, -0.0)
    return amps / np.linalg.norm(amps)


def assert_values_with_positive_zeros(got: np.ndarray, want: np.ndarray) -> None:
    """`got` holds the values of `want`, and each zero part of `got` is
    +0.0, as an exact sum of products with ones and zeros gives on any BLAS
    kernel."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    for part in (got.real, got.imag):
        assert not np.signbit(part[part == 0]).any()


# textbook reference objects the tests compare against

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


def cnot_inputs() -> list[tuple[tuple, tuple]]:
    """Criterion 6's (control, target) inputs: the four basis pairs, then 20
    random product states."""
    rng = np.random.default_rng(77)
    inputs = [((1, 0), (1, 0)), ((1, 0), (0, 1)),
              ((0, 1), (1, 0)), ((0, 1), (0, 1))]
    for _ in range(20):
        pair = []
        for _ in range(2):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            pair.append(tuple(v / np.linalg.norm(v)))
        inputs.append(tuple(pair))
    return inputs


def bell_vector(kind: str) -> np.ndarray:
    return _BELL[kind].copy()


def w_vector(m: int) -> np.ndarray:
    """Single-excitation superposition over m qubits, length 2**m."""
    v = np.zeros(2 ** m, dtype=np.complex128)
    for i in range(m):
        v[1 << (m - 1 - i)] = 1.0
    return v / np.sqrt(m)


def direct_beats_half(profile: ImperfectionProfile) -> bool:
    """True when `yield_formula` gives the measurement-only realization
    (direct-cx) a strictly higher yield than the one-memory realization
    (half-memory-keep-control); ties (within numerical margin) are False."""
    direct = yield_formula(DIRECT_CX, profile)
    half = yield_formula(HALF_MEMORY_KEEP_CONTROL, profile)
    if np.isclose(direct, half, rtol=1e-12, atol=1e-15):
        return False
    return direct > half


# ---------------------------------------------------------------------------
# a 50-digit reference for the transfer powers T_k^N, in stdlib `decimal`
# alone: its own pi, its own sine and cosine, its own repeated squaring, all
# carried at 60 digits so that 24 squarings at N = 10^7 keep 50.  It shares
# nothing with `interrogation`, so the engine's long-double stacks are
# checked against arithmetic that cannot make their rounding errors.

REFERENCE_DIGITS = 60
_PI_60 = Decimal("3.141592653589793238462643383279502884197169399375105820974944")


def _cos_sin(theta: Decimal) -> tuple[Decimal, Decimal]:
    """cos and sin of `theta`: Taylor series once theta is halved below
    1e-3, then the double-angle formulas back up."""
    halvings = 0
    while theta >= Decimal("1e-3"):
        theta /= 2
        halvings += 1
    tiny = Decimal(10) ** -(REFERENCE_DIGITS + 5)
    c = s = Decimal(0)
    term, n = Decimal(1), 0  # theta^n / n!
    while term > tiny:
        if n % 2 == 0:
            c += term if n % 4 == 0 else -term
        else:
            s += term if n % 4 == 1 else -term
        n += 1
        term = term * theta / n
    for _ in range(halvings):
        c, s = c * c - s * s, 2 * s * c
    return c, s


def _matmul(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
            for i in range(2)]


def reference_powers(cycles: int, half_angle: bool, eps: float, lam: float,
                     kmax: int) -> list:
    """T_k^N for k = 0..kmax as 2x2 lists of `Decimal`, N = `cycles`, with
    T_k = keep_loss * diag(1, keep_eps^k) * R(theta), theta = pi/N (or
    pi/2N when `half_angle`), keep_eps^2 = 1 - eps and keep_loss^2 = 1 - lam,
    all at `REFERENCE_DIGITS` digits."""
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        c, s = _cos_sin(_PI_60 / (2 * cycles if half_angle else cycles))
        keep_eps = (1 - Decimal(eps)).sqrt()
        keep_loss = (1 - Decimal(lam)).sqrt()
        out, row = [], Decimal(1)  # row = keep_eps^k
        for _ in range(kmax + 1):
            step = [[keep_loss * c, -keep_loss * s],
                    [keep_loss * row * s, keep_loss * row * c]]
            power = [[Decimal(1), Decimal(0)], [Decimal(0), Decimal(1)]]
            e = cycles
            while e:
                if e & 1:
                    power = _matmul(power, step)
                e >>= 1
                if e:
                    step = _matmul(step, step)
            out.append(power)
            row *= keep_eps
        return out


def exact_decimal(x) -> Decimal:
    """A binary float (long double included) as the `Decimal` of its exact
    value, to `REFERENCE_DIGITS` digits."""
    num, den = x.as_integer_ratio()
    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        return Decimal(num) / Decimal(den)


# ---------------------------------------------------------------------------
# a 50-digit reference walk of a whole program, in stdlib `decimal` alone.
# Each amplitude is an (re, im) pair of `Decimal`s, kept in a dict by its
# level tuple; a level tuple the dict does not hold is 0.  The gates come from their
# definitions: H from a 60-digit sqrt(2), the Fourier transform and the
# cphase phases from `_cos_sin`, each interrogation from `reference_powers`
# gathered by blocked count.  A measurement is a projection and a
# renormalization, walked depth first in outcome order.  The walk shares
# nothing with the engine or the oracle but the program, so it says how far
# a printed amplitude or weight is from the true one.

_ZERO, _ONE = Decimal(0), Decimal(1)
_WALK_CUTOFF = Decimal("1e-15")  # a kept branch weighs more than this


def _columns_of(rows) -> dict:
    """A square matrix of (re, im) entries as {column: [(row, entry)]},
    zero entries and the identity's columns left out."""
    n = len(rows)
    cols = {}
    for i in range(n):
        col = [(j, rows[j][i]) for j in range(n) if rows[j][i] != (_ZERO, _ZERO)]
        if col != [(i, (_ONE, _ZERO))]:
            cols[i] = col
    return cols


with localcontext() as _ctx:
    _ctx.prec = REFERENCE_DIGITS
    _HALF_SQRT = _ONE / Decimal(2).sqrt()  # 1/sqrt(2) from a 60-digit sqrt(2)
    _H_COLUMNS = _columns_of([[(_HALF_SQRT, _ZERO), (_HALF_SQRT, _ZERO)],
                              [(_HALF_SQRT, _ZERO), (-_HALF_SQRT, _ZERO)]])
_X_COLUMNS = {0: [(1, (_ONE, _ZERO))], 1: [(0, (_ONE, _ZERO))]}
_Z_COLUMNS = {1: [(1, (-_ONE, _ZERO))]}


def _fourier_columns(d: int) -> dict:
    """The d-position Fourier transform, entry (j, k) exp(2 pi i jk/d)/sqrt(d)."""
    scale = _ONE / Decimal(d).sqrt()
    rows = []
    for j in range(d):
        row = []
        for k in range(d):
            c, s = _cos_sin(2 * _PI_60 * (j * k % d) / d)
            row.append((c * scale, s * scale))
        rows.append(row)
    return _columns_of(rows)


def _apply_columns(amps: dict, axis: int, cols: dict) -> dict:
    """The operator `cols` (see `_columns_of`) on one axis, the identity on
    the levels it leaves out."""
    out = {}
    for idx, (re, im) in amps.items():
        col = cols.get(idx[axis])
        if col is None:
            col = [(idx[axis], (_ONE, _ZERO))]
        for j, (mr, mi) in col:
            key = idx[:axis] + (j,) + idx[axis + 1:]
            r0, i0 = out.get(key, (_ZERO, _ZERO))
            out[key] = (r0 + mr * re - mi * im, i0 + mr * im + mi * re)
    return out


def _prepared_vector(dim: int, args: dict) -> list:
    vec = [(_ZERO, _ZERO)] * dim
    if "pm" in args:
        vec[0] = (_HALF_SQRT, _ZERO)
        vec[1] = (_HALF_SQRT if args["pm"] == "+" else -_HALF_SQRT, _ZERO)
    elif args.get("uniform"):
        amp = _ONE / Decimal(dim - 1).sqrt()
        vec[:dim - 1] = [(amp, _ZERO)] * (dim - 1)
    elif "state" in args:  # the given doubles, exactly
        for level, (re, im) in enumerate(args["state"]):
            vec[level] = (Decimal(re), Decimal(im))
    else:
        vec[int(args.get("level", 0))] = (_ONE, _ZERO)
    return vec


def _interrogated(amps: dict, names: tuple, dims: tuple, a: dict, op: str,
                  powers) -> dict:
    """One interrogation: per configuration of the listed particles, the
    (|1H>, |1V>) pair times T_k^N for its blocked count k (`powers(kmax)`
    gives the stack), the sink and the listed particles' exploded levels
    dropped."""
    if op == "qicz":
        particles, blocking = [a["particle"]], None
    else:
        particles, blocking = list(a["particles"]), a.get("blocking")
    blocking = [0] * len(particles) if blocking is None else blocking
    sets = [set(b) if isinstance(b, (list, tuple)) else {b} for b in blocking]
    p = names.index(a["photon"])
    axes = [names.index(name) for name in particles]
    stack = powers(len(particles))
    out = {}
    for idx, (re, im) in amps.items():
        ph = idx[p]
        if ph == 3 or any(idx[ax] == dims[ax] - 1 for ax in axes):
            continue
        if ph == 0:
            out[idx] = (re, im)
            continue
        t = stack[sum(idx[ax] in blk for ax, blk in zip(axes, sets))]
        for row in (0, 1):
            m = t[row][ph - 1]
            key = idx[:p] + (row + 1,) + idx[p + 1:]
            r0, i0 = out.get(key, (_ZERO, _ZERO))
            out[key] = (r0 + m * re, i0 + m * im)
    return out


def _outcomes_of(amps: dict, axis: int, basis: str, dim: int) -> list:
    """(outcome, projected amplitudes) per outcome of a measurement, in the
    engine's outcome order, the failure outcome last: a rank-1 outcome
    drops the axis, the pooled photon failure (|1V> and the sink) keeps
    it."""
    def rows(level):
        return {idx[:axis] + idx[axis + 1:]: amp for idx, amp in amps.items()
                if idx[axis] == level}

    if basis == PHOTON_COMPUTATIONAL:
        return [(0, rows(0)), (1, rows(1)),
                (2, {idx: amp for idx, amp in amps.items() if idx[axis] >= 2})]
    if basis == PARTICLE_PM:
        found = []
        for outcome, sign in ((0, _ONE), (1, -_ONE)):
            out = {}
            for idx, (re, im) in amps.items():
                if idx[axis] < 2:
                    m = _HALF_SQRT if idx[axis] == 0 else sign * _HALF_SQRT
                    key = idx[:axis] + idx[axis + 1:]
                    r0, i0 = out.get(key, (_ZERO, _ZERO))
                    out[key] = (r0 + m * re, i0 + m * im)
            found.append((outcome, out))
        return found + [(2, rows(2))]
    return [(level, rows(level)) for level in range(dim)]


class ReferenceLeaf(NamedTuple):
    names: tuple  # the live subsystems, in the engine's layout order
    dims: tuple
    amps: dict  # level tuple -> (re, im); a tuple it does not hold is 0
    classical: dict
    weight: Decimal  # the product of the kept branch weights
    failed: bool


def reference_walk(program, params: QiParams) -> list[ReferenceLeaf]:
    """Every leaf of `program` under `params`, depth first in outcome order,
    at `REFERENCE_DIGITS` digits.  A measurement outcome that weighs no
    more than 1e-15 of its renormalized branch is dropped, and the last
    outcome of each basis ends its branch failed."""
    leaves = []
    stacks = {}

    def powers(kmax):
        if kmax not in stacks:
            if params.cycles is None:  # the pi/N wiring's exact limit
                stacks[kmax] = [[[-_ONE, _ZERO], [_ZERO, -_ONE]]] + [
                    [[_ONE, _ZERO], [_ZERO, _ZERO]]] * kmax
            else:
                stacks[kmax] = reference_powers(
                    params.cycles, params.theta_rule == PI_OVER_2N,
                    params.absorb_prob, params.cycle_loss, kmax)
        return stacks[kmax]

    def walk(pos, names, dims, amps, classical, weight):
        for i in range(pos, len(program.instructions)):
            instr = program.instructions[i]
            op, a = instr.op, instr.args
            if op == "prepare":
                spec = program.spec(a["target"])
                vec = _prepared_vector(spec.dim, a)
                amps = {idx + (lv,): (re * vr - im * vi, re * vi + im * vr)
                        for idx, (re, im) in amps.items()
                        for lv, (vr, vi) in enumerate(vec) if vr or vi}
                names, dims = names + (spec.name,), dims + (spec.dim,)
            elif op in ("photon_h", "particle_h"):
                d = dims[names.index(a["target"])] - 1
                cols = _H_COLUMNS if op == "photon_h" or d == 2 else _fourier_columns(d)
                amps = _apply_columns(amps, names.index(a["target"]), cols)
            elif op in ("photon_x", "particle_x", "photon_z", "particle_z"):
                cols = _X_COLUMNS if op.endswith("x") else _Z_COLUMNS
                amps = _apply_columns(amps, names.index(a["target"]), cols)
            elif op in ("cx", "cz"):
                if classical[a["bit"]]:
                    cols = _X_COLUMNS if op == "cx" else _Z_COLUMNS
                    amps = _apply_columns(amps, names.index(a["target"]), cols)
            elif op == "cphase":
                angle = Decimal(a["coeff"]) * classical[a["key"]]
                c, s = _cos_sin(abs(angle))  # of either sign
                phase = (c, s if angle >= 0 else -s)
                amps = _apply_columns(amps, names.index(a["target"]), {1: [(1, phase)]})
            elif op in ("qicz", "qicz_multi"):
                amps = _interrogated(amps, names, dims, a, op, powers)
                if params.residual_v_policy != KEEP:  # the residual |1V> is dropped
                    p = names.index(a["photon"])
                    amps = {idx: amp for idx, amp in amps.items() if idx[p] != 2}
            elif op == "xor":
                classical = {**classical, a["out"]: classical[a["a"]] ^ classical[a["b"]]}
            elif op == "measure":
                axis = names.index(a["target"])
                found = _outcomes_of(amps, axis, a["basis"], dims[axis])
                rest = names[:axis] + names[axis + 1:], dims[:axis] + dims[axis + 1:]
                for outcome, post in found:
                    w = sum(re * re + im * im for re, im in post.values())
                    if not w > _WALK_CUTOFF:
                        continue
                    norm = w.sqrt()
                    post = {idx: (re / norm, im / norm) for idx, (re, im) in post.items()}
                    record = {**classical, a["bit"]: outcome}
                    if outcome != found[-1][0]:
                        walk(i + 1, *rest, post, record, weight * w)
                    else:  # the failure outcome; the pooled photon one keeps its axis
                        pooled = a["basis"] == PHOTON_COMPUTATIONAL
                        leaves.append(ReferenceLeaf(*((names, dims) if pooled else rest),
                                                    post, record, weight * w, True))
                return
            else:
                raise ValueError(f"the reference walk has no op {op!r}")
        leaves.append(ReferenceLeaf(names, dims, amps, classical, weight, False))

    with localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        walk(0, (), (), {(): (_ONE, _ZERO)}, {}, _ONE)
    return leaves


# ---------------------------------------------------------------------------
# the oracle walk as it was before it kept a plan per instruction: every
# branch carries its own `_OracleState` (names, kinds and dims dicts beside
# the vector) and works out each instruction's gather index, operator,
# interrogation map and measurement bras where it reaches it.  It is kept
# literally but for its name and docstring, reads no oracle helper (only the
# leaf types and the cap), and `brute_force_run` must give byte-equal leaves
# in the same order.

_CUTOFF = 1e-15

_SQH = 1.0 / np.sqrt(2.0)
_H2 = np.array([[_SQH, _SQH], [_SQH, -_SQH]], dtype=np.complex128)
_X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z2 = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _photon_op(block2: np.ndarray) -> np.ndarray:
    m = np.eye(4, dtype=np.complex128)
    m[:2, :2] = block2
    m.flags.writeable = False
    return m


def _particle_op(positions: int, block: np.ndarray) -> np.ndarray:
    m = np.eye(positions + 1, dtype=np.complex128)
    m[:positions, :positions] = block
    m.flags.writeable = False
    return m


# the oracle's own fixed operators, built once at import and read-only
_PHOTON_H, _PHOTON_X, _PHOTON_Z = (_photon_op(b) for b in (_H2, _X2, _Z2))
_PARTICLE_H, _PARTICLE_X, _PARTICLE_Z = (_particle_op(2, b) for b in (_H2, _X2, _Z2))


def _dft(d: int) -> np.ndarray:
    w = np.exp(2j * np.pi / d)
    return np.array([[w ** (j * k) for k in range(d)] for j in range(d)],
                    dtype=np.complex128) / np.sqrt(d)


def _ideal_interrogation_diag(p_dims: list[int], blocking,
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
        self.vec = np.multiply.outer(self.vec, init.astype(np.complex128)).reshape(-1)
        self.names.append(name)
        self.kinds[name] = kind
        self.dims[name] = dim

    def apply(self, front: list[str], op: np.ndarray) -> None:
        """kron(op, I_rest) on the vector reordered to the front subsystems
        (in the given order) followed by the rest, computed as `op` times
        the (front, rest) reshape; the result is put back in the live
        order.  One index does both moves: entry j of the reordered vector
        is entry index[j] of the live one."""
        front_dim = prod(self.dims[n] for n in front)
        if op.shape != (front_dim, front_dim):
            raise ValueError(f"operator of shape {op.shape} does not act on "
                             f"{front!r} ({front_dim} levels)")
        axes = [self.names.index(n) for n in front]
        axes += [k for k in range(len(self.names)) if k not in axes]
        index = np.arange(self.vec.size).reshape(self.shape()).transpose(axes).reshape(-1)
        out = np.empty_like(self.vec)
        out[index] = (op @ self.vec[index].reshape(front_dim, -1)).reshape(-1)
        self.vec = out

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


# the photon and particle_pm bras, one row each, built once at import
_PHOTON_BRAS = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.complex128)
_PM_BRAS = np.array([[_SQH, _SQH, 0], [_SQH, -_SQH, 0], [0, 0, 1]],
                    dtype=np.complex128)
_PHOTON_BRAS.flags.writeable = _PM_BRAS.flags.writeable = False


def _measurement_outcomes(basis: str, dim: int):
    """(outcome, bra or _MEASURE_FAIL marker) in canonical order."""
    if basis == PHOTON_COMPUTATIONAL:
        return [(0, _PHOTON_BRAS[0]), (1, _PHOTON_BRAS[1]), (2, _MEASURE_FAIL)]
    if basis == PARTICLE_PM:
        return list(enumerate(_PM_BRAS))
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


def reference_brute_force_run(program, params=None) -> BranchTree:
    """The oracle walk with one `_OracleState` per branch."""
    params = params or QiParams()
    tree = BranchTree()

    def leaf(state: _OracleState, assignments: dict, failed: bool) -> None:
        tree.leaves.append(OracleLeaf(
            assignments=dict(assignments), layout=tuple(state.names),
            vector=state.vec.reshape(state.shape()), failed=failed))

    # (state, assignments, next instruction or None for a failure leaf,
    # squared norm right after the last measurement), the next one last.
    # That norm is the product of kept branch weights, so the per-branch
    # cutoff below matches the engine's rule on its renormalized states.
    todo = [(_OracleState(), {}, 0, 1.0)]
    while todo:
        state, assignments, pos, wprod = todo.pop()
        if pos is None:
            leaf(state, assignments, failed=True)
            continue
        for i in range(pos, len(program.instructions)):
            instr = program.instructions[i]
            op, a = instr.op, instr.args
            if op == "prepare":
                spec = program.spec(a["target"])
                state.add(spec.name, spec.kind, spec.dim,
                          _init_vector(spec.dim, a))
            elif op == "photon_h":
                state.apply([a["target"]], _PHOTON_H)
            elif op == "photon_x":
                state.apply([a["target"]], _PHOTON_X)
            elif op == "photon_z":
                state.apply([a["target"]], _PHOTON_Z)
            elif op == "particle_h":
                d = state.dims[a["target"]] - 1
                state.apply([a["target"]],
                            _PARTICLE_H if d == 2 else _particle_op(d, _dft(d)))
            elif op == "particle_x":
                state.apply([a["target"]], _PARTICLE_X)
            elif op == "particle_z":
                state.apply([a["target"]], _PARTICLE_Z)
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
                    flip = _PHOTON_X if kind == "photon" else _PARTICLE_X
                    state.apply([a["target"]], flip)
            elif op == "cz":
                if assignments[a["bit"]] & 1:
                    kind = state.kinds[a["target"]]
                    flip = _PHOTON_Z if kind == "photon" else _PARTICLE_Z
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
                children = []
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
                    failed = _is_failure(basis, outcome, dim)
                    children.append((post, sub, None if failed else i + 1, post_sq))
                todo += reversed(children)  # depth first, in outcome order
                break
        else:
            leaf(state, assignments, failed=False)
    return tree


def reference_sample_branch(branches: list, rng) -> int:
    """The Born-rule draw as a summing loop over a `branch_all` list: one
    uniform times the total weight, then the first entry whose running sum
    exceeds it, the last entry taking any rounding remainder."""
    u = rng.random() * sum(w for _, _, w in branches)
    acc = 0.0
    for index, (_, _, w) in enumerate(branches[:-1]):
        acc += w
        if u < acc:
            return index
    return len(branches) - 1
