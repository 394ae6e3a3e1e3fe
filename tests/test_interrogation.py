"""Cycle-level interrogation behavior: survival laws, the sign shift,
loss accounting, the run as one linear map local to its photon and
particles, the extracted effective map, and a differential check of the
closed-form cycle engine against a literal per-cycle loop."""

import copy
import pickle
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from zenosim import interrogation
from zenosim.circuits import MEMORY, cnot_circuit, run_all_branches
from zenosim.interrogation import (
    KEEP,
    PI_OVER_2N,
    PI_OVER_N,
    ROUTE_TO_SINK,
    QiParams,
    effective_map,
    qi_run,
    qicz,
    qicz_multi,
    theta_value,
)
from zenosim.state import (
    BLOCKED,
    OPEN,
    PH_ONE_H,
    PH_ONE_V,
    PH_SINK,
    StateVector,
    level_weight,
    new_state,
    norm_sq,
    particle,
    photon,
)


def _pair(photon_level, position, positions=2):
    return new_state([photon("p"), particle("b", positions=positions)],
                     [photon_level, position])


@pytest.mark.parametrize("rule", [PI_OVER_N, PI_OVER_2N])
@pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
def test_blocked_survival_is_cos_power(rule, n):
    params = QiParams(cycles=n, theta_rule=rule)
    out = qi_run(_pair(PH_ONE_H, BLOCKED), "p", ["b"], [BLOCKED], params)
    theta = np.pi / n if rule == PI_OVER_N else np.pi / (2 * n)
    assert norm_sq(out) == pytest.approx(np.cos(theta) ** (2 * n), abs=1e-13)
    # all surviving weight is horizontal
    assert level_weight(out, "p", PH_ONE_H) == pytest.approx(norm_sq(out))


@pytest.mark.parametrize("n", [1, 2, 7, 25, 50, 10**4, 10**5, 10**6, 10**7])
def test_open_run_is_exact_sign_flip(n):
    params = QiParams(cycles=n)
    amp_in = 0.8 + 0.6j
    state = _pair(0, OPEN)
    amps = np.zeros_like(state.amps)
    amps[PH_ONE_H, OPEN] = amp_in
    out = qi_run(StateVector(state.layout, amps), "p", ["b"], [BLOCKED], params)
    got = out.amps[PH_ONE_H, OPEN]
    assert abs(got + amp_in) <= 1e-15
    assert level_weight(out, "p", PH_ONE_V) == 0.0


def test_theta_rules_and_explicit():
    assert float(theta_value(QiParams(cycles=10))) == pytest.approx(np.pi / 10)
    assert float(theta_value(QiParams(cycles=10, theta_rule=PI_OVER_2N))) == \
        pytest.approx(np.pi / 20)
    # a free per-cycle angle is not a rule; pi/N and pi/2N are the only two
    with pytest.raises(ValueError, match="unknown theta rule 'explicit'"):
        QiParams(cycles=3, theta_rule="explicit")


def test_params_validation():
    with pytest.raises(ValueError, match="^cycles must be >= 1$"):
        QiParams(cycles=0)
    # a cycle count is an integer, and a bool is not one
    for cycles, shown in ((10.0, "10.0"), (True, "True"), (2.5, "2.5")):
        with pytest.raises(ValueError, match=rf"^cycles must be an integer or None, got {shown}$"):
            QiParams(cycles=cycles)
    with pytest.raises(ValueError):
        QiParams(cycles=None, theta_rule=PI_OVER_2N)
    with pytest.raises(ValueError, match=r"^absorb_prob must lie in \[0, 1\]$"):
        QiParams(absorb_prob=1.5)
    with pytest.raises(ValueError, match=r"^cycle_loss must lie in \[0, 1\)$"):
        QiParams(cycle_loss=1.0)
    # a chance is a finite real number of any width, and a bool or a string
    # is not one
    for field in ("absorb_prob", "cycle_loss"):
        for value, shown in ((True, "True"), (False, "False"), ("0.5", "'0.5'"),
                             (float("nan"), "nan"), (float("inf"), "inf"),
                             (np.float32("inf"), r"np.float32\(inf\)"),
                             (np.float32("-inf"), r"np.float32\(-inf\)"),
                             (np.float32("nan"), r"np.float32\(nan\)")):
            with pytest.raises(ValueError, match=rf"^{field} must be a number, got {shown}$"):
                QiParams(cycles=5, **{field: value})
    # an int or a float of any width is kept as the Python float it holds
    for width in (np.float16, np.float32, np.float64):
        params = QiParams(absorb_prob=width(0.5), cycle_loss=width(0.25))
        assert (params.absorb_prob, params.cycle_loss) == (0.5, 0.25)
        assert (type(params.absorb_prob), type(params.cycle_loss)) == (float, float)
    assert QiParams(absorb_prob=1, cycle_loss=0) == QiParams(absorb_prob=1.0, cycle_loss=0.0)
    assert QiParams(absorb_prob=np.int8(0), cycle_loss=np.uint8(0)).absorb_prob == 0.0
    # each chance is checked in full before the next
    with pytest.raises(ValueError, match=r"^absorb_prob must lie in \[0, 1\]$"):
        QiParams(absorb_prob=1.5, cycle_loss=float("nan"))
    with pytest.raises(ValueError):
        QiParams(residual_v_policy="discard")
    # a transparent particle or a per-cycle loss, which the limit does not model
    for absorb, loss in ((0.0, 0.0), (1.0, 1e-6)):
        with pytest.raises(ValueError, match="^the exact limit is defined for absorb_prob > 0 "
                                             "and cycle_loss = 0 only$"):
            QiParams(cycles=None, absorb_prob=absorb, cycle_loss=loss)


@pytest.mark.parametrize("width", [np.int16, np.int32, np.int64])
def test_numpy_cycle_count_is_kept_as_its_int(width):
    # 2 * 20,000 does not fit an int16, and the pi/2N angle takes that product
    params = QiParams(cycles=width(20000), theta_rule=PI_OVER_2N)
    assert type(params.cycles) is int
    assert params == QiParams(cycles=20000, theta_rule=PI_OVER_2N)
    assert theta_value(params) == theta_value(QiParams(cycles=20000, theta_rule=PI_OVER_2N))


def test_exact_limit_is_the_deep_runs_limit_on_1h_for_a_partial_absorber():
    # |1H> beside a 2-position particle, blocking and open: at N = 10^7 and
    # absorb 0.5 the blocked photon keeps 0.999997 of its amplitude
    columns = [PH_ONE_H * 3 + BLOCKED, PH_ONE_H * 3 + OPEN]
    limit = effective_map(QiParams(cycles=None, absorb_prob=0.5), 1)[:, columns]
    deep = effective_map(QiParams(cycles=10**7, absorb_prob=0.5), 1)[:, columns]
    assert np.abs(limit - deep).max() < 1e-5


def test_loss_factorizes_per_cycle():
    lam = 3e-3
    n = 40
    params = QiParams(cycles=n, cycle_loss=lam, residual_v_policy=KEEP)
    out = qi_run(_pair(PH_ONE_H, OPEN), "p", ["b"], [BLOCKED], params)
    # open run: rotation composes to pi, everything rides in the polarized
    # block and picks up exactly (1-lam)^n in weight
    assert norm_sq(out) == pytest.approx((1 - lam) ** n, rel=1e-12)
    amp = out.amps[PH_ONE_H, OPEN]
    assert amp.imag == 0.0
    assert amp.real < 0.0
    assert abs(amp) == pytest.approx((1 - lam) ** (n / 2), rel=1e-12)


def test_sign_shift_survives_loss_and_weak_absorber():
    params = QiParams(cycles=30, absorb_prob=0.4, cycle_loss=1e-3)
    out = qi_run(_pair(PH_ONE_H, OPEN), "p", ["b"], [BLOCKED], params)
    amp = out.amps[PH_ONE_H, OPEN]
    assert amp.real < 0.0
    assert amp.imag == 0.0


def test_zeno_convergence_bound():
    for n in (50, 100, 400, 1000):
        out = qi_run(_pair(PH_ONE_H, BLOCKED), "p", ["b"], [BLOCKED],
                     QiParams(cycles=n))
        assert norm_sq(out) >= 1.0 - 1.05 * np.pi ** 2 / n


def test_partial_absorber_splits_vertical_weight():
    eps = 0.3
    params = QiParams(cycles=1, theta_rule=PI_OVER_2N, absorb_prob=eps,
                      residual_v_policy=KEEP)
    out = qi_run(_pair(PH_ONE_H, BLOCKED), "p", ["b"], [BLOCKED], params)
    # quarter turn puts everything vertical; absorber takes eps of it
    assert level_weight(out, "p", PH_ONE_V) == pytest.approx(1 - eps)
    assert norm_sq(out) == pytest.approx(1 - eps)


@pytest.mark.parametrize("policy", [ROUTE_TO_SINK, KEEP])
@pytest.mark.parametrize("params", [QiParams(cycles=None),
                                    QiParams(cycles=3, absorb_prob=0.9)])
def test_residual_routing_is_linear_on_failure_levels(params, policy):
    """Residual |1V> next to sink weight, and a particle half exploded: the
    run is the extracted map applied to the whole vector."""
    params = replace(params, residual_v_policy=policy)
    state = _pair(0, BLOCKED)
    amps = np.zeros_like(state.amps)
    amps[PH_ONE_V, BLOCKED] = np.sqrt(0.5)
    amps[PH_SINK, BLOCKED] = np.sqrt(0.5)
    for vec in (amps, np.outer(np.eye(4)[PH_ONE_V], [1, 0, 1]) / np.sqrt(2)):
        out = qi_run(StateVector(state.layout, vec), "p", ["b"], [BLOCKED], params)
        want = effective_map(params, 1) @ vec.reshape(-1)
        assert np.abs(out.amps.reshape(-1) - want).max() <= 1e-15


@pytest.mark.parametrize("params", [QiParams(cycles=None),
                                    QiParams(cycles=3, absorb_prob=0.9)])
def test_run_leaves_other_subsystems_alone(params):
    """Failure levels of a bystander particle and photon survive the run."""
    half = np.sqrt(0.5)
    layout = (photon("p"), particle("b"), particle("c"), photon("q"))
    amps = np.einsum("i,j,k,l->ijkl", np.eye(4)[PH_ONE_H], np.eye(3)[OPEN],
                     [half, 0, half], [half, 0, 0, half])
    out = qi_run(StateVector(layout, amps), "p", ["b"], [BLOCKED], params)
    assert np.abs(out.amps + amps).max() <= 1e-15
    assert level_weight(out, "c", 2) == pytest.approx(0.5)
    assert level_weight(out, "q", PH_SINK) == pytest.approx(0.5)


def test_ideal_limit_matches_many_cycles():
    rng = np.random.default_rng(11)
    state = _pair(0, BLOCKED)
    amps = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    amps[2:, :] = 0.0
    amps[:, 2] = 0.0
    amps /= np.linalg.norm(amps)
    state = StateVector(state.layout, amps.astype(np.complex128))
    exact = qicz(state, "p", "b", QiParams(cycles=None))
    finite = qicz(state, "p", "b", QiParams(cycles=20000))
    assert np.abs(exact.amps - finite.amps).max() < 1e-3


@pytest.mark.parametrize("absorb", [1.0, 0.5])
def test_limit_under_keep_matches_ten_million_cycles(absorb):
    # the |1H> and |1V> columns: the open pair takes the full pi turn to
    # (-|1H>, -|1V>), and a blocking particle freezes |1H> and absorbs |1V>
    deep, limit = (effective_map(QiParams(cycles=n, absorb_prob=absorb,
                                          residual_v_policy=KEEP), 1)
                   for n in (10**7, None))
    columns = [3 * ph + b for ph in (PH_ONE_H, PH_ONE_V) for b in (BLOCKED, OPEN)]
    assert np.abs(deep[:, columns] - limit[:, columns]).max() < 1e-5
    assert np.diag(limit)[columns].tolist() == [1, -1, 0, -1]


def test_multi_position_blocking_sets():
    params = QiParams(cycles=None)
    for pos, should_flip in ((0, False), (1, True), (2, False)):
        state = _pair(PH_ONE_H, pos, positions=3)
        out = qicz_multi(state, "p", ["b"], params, blocking=[[0, 2]])
        amp = out.amps[PH_ONE_H, pos]
        assert amp == pytest.approx(-1.0 if should_flip else 1.0)


# (blocking, the entry the error names): a float position was truncated
# and a bool counted as its integer, so [[0.7]] blocked position 0 and
# [True] position 1
_NOT_POSITIONS = {
    "float-in-list": ([[0.7]], "[0.7]"),
    "bool": ([True], "True"),
    "float": ([0.0], "0.0"),
    "bool-in-list": ([[np.int64(0), True]], "[np.int64(0), True]"),
    "string": (["1"], "'1'"),
}


@pytest.mark.parametrize("case", sorted(_NOT_POSITIONS))
def test_blocking_entries_are_integer_positions(case):
    blocking, shown = _NOT_POSITIONS[case]
    state = _pair(PH_ONE_H, 1, positions=3)
    with pytest.raises(ValueError) as err:
        qicz_multi(state, "p", ["b"], QiParams(cycles=None), blocking=blocking)
    assert str(err.value) == (f"blocking entry for 'b' must be a position or a list of "
                              f"positions, got {shown}")


def test_unconditional_flip_with_no_particles():
    state = new_state([photon("p")], [PH_ONE_H])
    out = qicz_multi(state, "p", [], QiParams(cycles=None))
    assert out.amps[PH_ONE_H] == pytest.approx(-1.0)


def test_qicz_requires_two_position_particle():
    state = _pair(PH_ONE_H, 0, positions=3)
    with pytest.raises(ValueError, match="^qicz needs a 2-position particle, "
                                         "but 'b' is a 3-position particle$"):
        qicz(state, "p", "b", QiParams(cycles=None))


def test_effective_map_is_contraction_and_cached():
    params = QiParams(cycles=200)
    m1 = effective_map(params, 1)
    m2 = effective_map(params, 1)
    assert np.array_equal(m1, m2)
    m1[0, 0] = 99.0  # caller-side mutation must not poison the cache
    assert effective_map(params, 1)[0, 0] != 99.0
    smax = np.linalg.svd(m2, compute_uv=False).max()
    assert smax <= 1.0 + 1e-12


def test_effective_map_blocked_column_matches_direct_run():
    params = QiParams(cycles=150, absorb_prob=0.8, cycle_loss=1e-4)
    m = effective_map(params, 1)
    run = qi_run(_pair(PH_ONE_H, BLOCKED), "p", ["b"], [BLOCKED], params)
    col = m[:, PH_ONE_H * 3 + BLOCKED]
    assert np.abs(col - run.amps.reshape(-1)).max() < 1e-14


# --- the map against one qi_run per basis column ---------------------------

_MAP_LAYOUTS = [
    ([], []),
    ([2], [(0,)]),
    ([4], [(0, 2)]),
    ([3, 2], [(1, 2), (0,)]),
    ([2, 2, 2], [(0,), (0,), (0,)]),
    ([2, 4, 3], [(0,), (1, 3), (0, 2)]),
]
_MAP_DEPTHS = [1, 2, 3, 17, 333, 10**4, 10**7, None]
_MAP_SETTINGS = [(1.0, 0.0), (0.9, 1e-3), (0.0, 1e-6)]  # (absorb, loss)


def _map_grid():
    """Every depth under both theta rules (the limit has only pi/N), each
    paired with one (absorb, loss, residual policy) setting in turn, so
    every setting meets both policies on every layout: 15 maps per layout.
    The limit takes the ideal absorber without loss, the only setting it
    models."""
    cells = [(n, rule) for n in _MAP_DEPTHS for rule in (PI_OVER_N, PI_OVER_2N)
             if n is not None or rule == PI_OVER_N]
    for i, (n, rule) in enumerate(cells):
        eps, lam = _MAP_SETTINGS[i % 3] if n is not None else (1.0, 0.0)
        policy = (ROUTE_TO_SINK, KEEP)[i // 3 % 2]
        yield QiParams(cycles=n, theta_rule=rule, absorb_prob=eps,
                       cycle_loss=lam, residual_v_policy=policy)


def _map_by_columns(params, positions, blocking):
    """The map as one qi_run per basis input, column by column."""
    layout = [photon("ph")] + [particle(f"b{i}", positions=d)
                               for i, d in enumerate(positions)]
    names = [s.name for s in layout[1:]]
    dims = [s.dim for s in layout]
    total = int(np.prod(dims))
    out = np.zeros((total, total), dtype=np.complex128)
    for col in range(total):
        basis = new_state(layout, list(np.unravel_index(col, dims)))
        out[:, col] = qi_run(basis, "ph", names, list(blocking), params).amps.reshape(-1)
    return out


@pytest.mark.parametrize("layout", range(len(_MAP_LAYOUTS)))
def test_effective_map_is_bit_identical_to_column_runs(layout):
    positions, blocking = _MAP_LAYOUTS[layout]
    for params in _map_grid():
        got = effective_map(params, len(positions), positions, blocking)
        want = _map_by_columns(params, positions, blocking)
        assert got.tobytes() == want.tobytes(), params


def test_cold_map_is_one_engine_run(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].amps.size)
        return qi_run(*args, **kwargs)

    monkeypatch.setattr(interrogation, "qi_run", counting)
    interrogation._effective_map_cached.cache_clear()
    params = QiParams(cycles=41, absorb_prob=0.7)
    effective_map(params, 2, [3, 2], [[0, 2], 1])
    assert calls == [(4 * 4 * 3) ** 2]  # one batched run: every column at once
    effective_map(params, 2, [3, 2], [[0, 2], 1])
    assert len(calls) == 1


@pytest.mark.parametrize("n, positions", [(3, [2]), (0, [2, 2]), (-1, None)])
def test_effective_map_rejects_position_count_mismatch(n, positions):
    with pytest.raises(ValueError, match="^need a nonnegative particle count and one "
                                         "position count per particle$"):
        effective_map(QiParams(cycles=5), n, positions)


def test_effective_map_accepts_numpy_integer_blocking():
    params = QiParams(cycles=5)
    want = effective_map(params, 1, blocking=[0])
    misses = interrogation._effective_map_cached.cache_info().misses
    got = effective_map(params, 1, blocking=[np.int64(0)])
    assert got.tobytes() == want.tobytes()
    assert interrogation._effective_map_cached.cache_info().misses == misses
    two = effective_map(params, 2, blocking=[np.int32(1), [np.int64(0)]])
    assert two.tobytes() == effective_map(params, 2, blocking=[1, [0]]).tobytes()


@pytest.mark.parametrize("rule", [PI_OVER_N, PI_OVER_2N])
@pytest.mark.parametrize("lam", [0.0, 1e-6])
@pytest.mark.parametrize("n", [10**2, 10**4, 10**6])
def test_blocked_survival_closed_form_at_large_n(rule, lam, n):
    params = QiParams(cycles=n, theta_rule=rule, cycle_loss=lam)
    out = qi_run(_pair(PH_ONE_H, BLOCKED), "p", ["b"], [BLOCKED], params)
    theta = np.pi / n if rule == PI_OVER_N else np.pi / (2 * n)
    # cos^(2N) via log1p, so the reference itself keeps 1e-16 accuracy
    expected = np.exp(2 * n * np.log1p(-2 * np.sin(theta / 2) ** 2)
                      + n * np.log1p(-lam))
    assert abs(norm_sq(out) - expected) <= 1e-12


# --- differential check of the cycle engine against a literal loop ---------

_CONFIGS = [
    ([2], [(0,)]),
    ([4], [(0, 2)]),
    ([3, 2], [(1, 2), (0,)]),
    ([2, 4, 3], [(0,), (1, 3), (0, 2)]),
]


def _random_state(positions, rng):
    """Photon on levels 0, |1H>, |1V> and particles on their positions;
    sink and exploded levels start empty."""
    layout = [photon("p")] + [particle(f"b{i}", positions=d)
                              for i, d in enumerate(positions)]
    shape = tuple(s.dim for s in layout)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps[PH_SINK] = 0.0
    for axis, d in enumerate(positions, start=1):
        amps[(slice(None),) * axis + (d,)] = 0.0
    return StateVector(tuple(layout), amps / np.linalg.norm(amps))


def _reference_cycles(state, positions, blocking, params):
    """Per-cycle loop in complex128: rotate, let each particle absorb at each
    of its blocking positions (the absorbed amplitude replaces whatever sits
    in the sink x exploded slot), then lose."""
    amps = state.amps.copy()
    theta = float(theta_value(params))
    c, s = np.cos(theta), np.sin(theta)
    eps, lam = params.absorb_prob, params.cycle_loss

    def at(level, axis, pos):
        return (level,) + (slice(None),) * axis + (pos,)

    for _ in range(params.cycles):
        h, v = amps[PH_ONE_H].copy(), amps[PH_ONE_V].copy()
        amps[PH_ONE_H] = c * h - s * v
        amps[PH_ONE_V] = s * h + c * v
        if eps > 0.0:
            for axis, (d, blk) in enumerate(zip(positions, blocking)):
                for b in blk:
                    amps[at(PH_SINK, axis, d)] = np.sqrt(eps) * amps[at(PH_ONE_V, axis, b)]
                    amps[at(PH_ONE_V, axis, b)] *= np.sqrt(1.0 - eps)
        amps[PH_ONE_H:PH_SINK] *= np.sqrt(1.0 - lam)
    return amps


def _reference_finish(amps, layout, positions, policy):
    amps = amps.copy()
    if policy == ROUTE_TO_SINK:
        amps[PH_ONE_V] = 0.0
    amps[PH_SINK] = 0.0
    for axis, d in enumerate(positions, start=1):
        amps[(slice(None),) * axis + (d,)] = 0.0
    return StateVector(layout, amps)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 256, 1000])
@pytest.mark.parametrize("config", range(len(_CONFIGS)))
def test_engine_matches_literal_cycle_loop(config, n):
    positions, blocking = _CONFIGS[config]
    rng = np.random.default_rng(1000 * config + n)
    state = _random_state(positions, rng)
    names = [f"b{i}" for i in range(len(positions))]
    for eps in (0.0, 0.3, 0.9, 1.0):
        for lam in (0.0, 1e-6):
            for rule in (PI_OVER_N, PI_OVER_2N):
                params = QiParams(cycles=n, theta_rule=rule, absorb_prob=eps,
                                  cycle_loss=lam)
                ref = _reference_cycles(state, positions, blocking, params)
                for policy in (ROUTE_TO_SINK, KEEP):
                    got = qi_run(state, "p", names, list(blocking),
                                 replace(params, residual_v_policy=policy))
                    want = _reference_finish(ref, state.layout, positions, policy)
                    assert np.abs(got.amps - want.amps).max() <= 1e-12, \
                        (eps, lam, rule, policy)


# --- the T_k^N stacks at their literal values ------------------------------

def _same_longdouble(got, want):
    # a longdouble's padding bytes are uninitialized, so equal values can
    # differ in tobytes(): compare values and the signs of zeros instead
    return (got.dtype == want.dtype and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.mark.parametrize("kmax", [0, 1, 3])
def test_one_cycle_and_limit_stacks_are_their_literal_values(kmax):
    # one cycle at theta = pi with a full absorber: T_0 is the rotation, and
    # every blocked T_k keeps its first row over a |1V> row of +0.0, though
    # the step's own |1V> row holds cos(theta) * 0 = -0.0
    params = QiParams(cycles=1, absorb_prob=1.0)
    theta = theta_value(params)
    c, s = np.cos(theta), np.sin(theta)
    zero, one = type(theta)(0), type(theta)(1)
    want = np.array([[[c, -s], [s, c]]] + [[[c, -s], [zero, zero]]] * kmax)
    assert _same_longdouble(interrogation._power_stack(params, kmax), want)
    # the exact limit: the open interferometer's sign flip, and the photon
    # frozen on |1H> with |1V> absorbed wherever a particle blocks
    want = np.array([[[-one, zero], [zero, -one]]] + [[[one, zero], [zero, zero]]] * kmax)
    assert _same_longdouble(interrogation._power_stack(QiParams(cycles=None), kmax), want)


# --- the T_k^N stacks memoized on each params object ------------------------

def test_cycle_powers_run_once_per_params_and_kmax(monkeypatch):
    squared, runs = [], []
    cycle_powers, run_cycles = interrogation._cycle_powers, interrogation._run_cycles

    def counted_powers(kmax, *args):
        squared.append(kmax)
        return cycle_powers(kmax, *args)

    def counted_runs(work, plan, params):
        runs.append(params)
        return run_cycles(work, plan, params)

    monkeypatch.setattr(interrogation, "_cycle_powers", counted_powers)
    monkeypatch.setattr(interrogation, "_run_cycles", counted_runs)
    params = QiParams(cycles=10**4, absorb_prob=0.9, cycle_loss=1e-3)
    branches = run_all_branches(cnot_circuit(MEMORY, control=(0.6, 0.8)), params)
    assert branches and all(p is params for p in runs)
    assert sorted(squared) == sorted(set(squared)) == sorted(params._stacks)
    assert len(runs) > len(squared)


def _stack_grid():
    yield QiParams(cycles=None)
    for n, eps, lam in product((1, 3, 333, 10**4, 10**7), (0.0, 0.5, 1.0), (0.0, 1e-3)):
        yield QiParams(cycles=n, absorb_prob=eps, cycle_loss=lam)


def test_stack_grown_from_a_smaller_kmax_matches_a_fresh_params():
    for params in _stack_grid():
        small = interrogation._power_stack(params, 1)
        grown = interrogation._power_stack(params, 3)
        fresh = interrogation._power_stack(replace(params), 3)
        assert _same_longdouble(grown, fresh), params
        assert _same_longdouble(small, grown[:2]), params
        assert interrogation._power_stack(params, 1) is small


def test_memoized_stacks_are_read_only():
    for params in (QiParams(cycles=None), QiParams(cycles=17, absorb_prob=0.5)):
        stack = interrogation._power_stack(params, 2)
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 0


def test_memo_leaves_params_value_semantics_alone():
    warm = QiParams(cycles=333, absorb_prob=0.9)
    qi_run(_pair(PH_ONE_H, BLOCKED), "p", ["b"], [BLOCKED], warm)
    cold = QiParams(cycles=333, absorb_prob=0.9)
    assert warm._stacks and warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold) == (
        "QiParams(cycles=333, theta_rule='pi_over_n', absorb_prob=0.9, "
        "cycle_loss=0.0, residual_v_policy='route_to_sink')")
    assert replace(warm) == warm and replace(warm, cycles=7) == QiParams(cycles=7, absorb_prob=0.9)
    interrogation._effective_map_cached.cache_clear()
    effective_map(warm, 1)
    effective_map(cold, 1)
    info = interrogation._effective_map_cached.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_copies_and_pickles_of_a_warm_params_give_the_same_bits():
    rng = np.random.default_rng(5)
    layout = (photon("p"), particle("b"), particle("c", 3))
    dims = [s.dim for s in layout]
    amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    state = StateVector(layout, amps / np.linalg.norm(amps))
    for params in _stack_grid():
        want = qi_run(state, "p", ["b", "c"], [BLOCKED, [0, 1]], params).amps.tobytes()
        assert params._stacks and params._rows
        for clone in (copy.copy(params), copy.deepcopy(params),
                      pickle.loads(pickle.dumps(params))):
            # the memos are left behind, and the clone fills its own
            assert clone == params and vars(clone).keys().isdisjoint({"_stacks", "_rows"})
            got = qi_run(state, "p", ["b", "c"], [BLOCKED, [0, 1]], clone).amps.tobytes()
            assert got == want, params
            assert not interrogation._power_stack(clone, 2).flags.writeable
