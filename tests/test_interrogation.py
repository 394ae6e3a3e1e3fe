"""Cycle-level interrogation behavior: survival laws, the sign shift,
loss accounting, the run as one linear map local to its photon and
particles, the extracted effective map, and a differential check of the
closed-form cycle engine against a literal per-cycle loop."""

from dataclasses import replace

import numpy as np
import pytest

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
    with pytest.raises(ValueError):
        QiParams(cycles=0)
    with pytest.raises(ValueError):
        QiParams(cycles=None, theta_rule=PI_OVER_2N)
    with pytest.raises(ValueError):
        QiParams(absorb_prob=1.5)
    with pytest.raises(ValueError):
        QiParams(cycle_loss=1.0)
    with pytest.raises(ValueError):
        QiParams(residual_v_policy="discard")


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


def test_multi_position_blocking_sets():
    params = QiParams(cycles=None)
    for pos, should_flip in ((0, False), (1, True), (2, False)):
        state = _pair(PH_ONE_H, pos, positions=3)
        out = qicz_multi(state, "p", ["b"], params, blocking=[[0, 2]])
        amp = out.amps[PH_ONE_H, pos]
        assert amp == pytest.approx(-1.0 if should_flip else 1.0)


def test_unconditional_flip_with_no_particles():
    state = new_state([photon("p")], [PH_ONE_H])
    out = qicz_multi(state, "p", [], QiParams(cycles=None))
    assert out.amps[PH_ONE_H] == pytest.approx(-1.0)


def test_qicz_requires_two_position_particle():
    state = _pair(PH_ONE_H, 0, positions=3)
    with pytest.raises(ValueError):
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
