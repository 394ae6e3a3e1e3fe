"""Test-side helpers that the library itself has no use for."""

from decimal import Decimal, localcontext
from typing import NamedTuple

import numpy as np

from zenosim.analysis import yield_formula
from zenosim.circuits import DIRECT_CX, HALF_MEMORY_KEEP_CONTROL
from zenosim.gates import ImperfectionProfile
from zenosim.interrogation import KEEP, PI_OVER_2N, QiParams
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


UNIT_ROUNDOFF = 2.0 ** -53  # u: round to nearest moves a double by at most u relative


class RoundingBounds(NamedTuple):
    amplitude: float  # an unnormalized leaf amplitude's modulus or part, from the walk's
    weight: float  # a branch weight or a success probability, from the walk's
    compare: float  # `oracle.compare` between the engine and the oracle


def rounding_bounds(program) -> RoundingBounds:
    """How far a float64 run of `program` may lie from the exact one by
    rounding alone, to first order in u = 2^-53, for a program of I
    instructions (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., SIAM 2002, ch. 2-3).

    Amplitudes, 2uI.  An instruction maps a branch's unnormalized vector
    psi, of norm at most 1, through an operator of 2-norm at most 1: a
    unitary (H, a Fourier transform, a phase), a contraction (T_k^N), a
    projection (an outcome), an isometry (a prepare) or a move by index.
    The standard model, |fl(x) - x| <= u|x|, charged once where the
    operator's entries are formed (1/sqrt(2), a cosine, a stack entry, a
    renormalization) and once where the product is stored, gives
    A psi + e with ||e|| <= 2u.  Later instructions are contractions too,
    so the errors add: the vector lies within 2uI of the exact one in the
    2-norm, which bounds each amplitude's modulus and parts.  Renormalizing
    a vector of norm sqrt(w) drops its error's real part along psi and
    divides the rest by sqrt(w): a normalized amplitude lies within
    `amplitude` / sqrt(w).

    Weights, 2u(2I + 1).  A branch weight, or a kept leaf's success
    probability, is a squared norm; it moves by 2 Re<psi, e>, at most twice
    `amplitude`, and forming it rounds twice more: the sum of squares and
    the product with the weights before.

    Compare, 8uI.  `oracle.compare` takes the largest |a - phase b| over
    the runners' vectors a and b, each within `amplitude` of the exact v,
    with phase = <b, a> / |<b, a>|.  The phase turns from 1 by at most
    |Im <b, a>| / ||v||^2 <= 2 `amplitude` / ||v||, so moves an entry of b
    by at most 2 `amplitude`: with a - b, 4 `amplitude`.

    The constants count roundings; no run's deviation sets them.  They
    have no term in N and no dtype: a power stack must hold T_k^N to u,
    and one that loses N u (a cosine one ulp off, raised to the N-th power)
    fails by design.  Charging an n-term sum one rounding is the standard
    model at the scale of an instruction; its worst case, every rounding
    pointing the same way (gamma_n, Higham 3.1), is up to n + 1 times
    higher, n <= 8 here (a part of a 4-position Fourier transform's sum).
    Moves by index round nothing and are charged the same."""
    amplitude = 2 * UNIT_ROUNDOFF * len(program.instructions)
    return RoundingBounds(amplitude, 2 * amplitude + 2 * UNIT_ROUNDOFF, 4 * amplitude)


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
