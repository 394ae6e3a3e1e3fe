"""Sweeps, discrimination, yield formulas, and the Monte Carlo estimator."""

import numpy as np
import pytest

from zenosim import analysis
from zenosim.analysis import (
    SweepRow,
    _draw_probabilities,
    direct_beats_half,
    discrimination_success,
    fidelity_sweep,
    monte_carlo_yield,
    yield_formula,
    zeno_sweep,
)
from zenosim.circuits import CNOT_FAMILIES, cnot_circuit, gate_census
from zenosim.gates import ImperfectionProfile
from zenosim.interrogation import PI_OVER_2N, PI_OVER_N


def test_zeno_sweep_matches_closed_form():
    for rule, factor in ((PI_OVER_N, 1.0), (PI_OVER_2N, 0.5)):
        rows = zeno_sweep([1, 2, 5, 20], theta_rule=rule)
        for row in rows:
            theta = factor * np.pi / row.n_cycles
            assert row.survival == pytest.approx(
                np.cos(theta) ** (2 * row.n_cycles), abs=1e-12)


def test_zeno_sweep_survival_rises_with_n():
    rows = zeno_sweep([2, 4, 8, 16, 32, 64])
    values = [row.survival for row in rows]
    assert values == sorted(values)
    assert values[-1] > 0.85


def test_zeno_sweep_records_settings():
    row = zeno_sweep([7], absorb=0.5, loss=0.01)[0]
    assert isinstance(row, SweepRow)
    assert (row.n_cycles, row.absorb, row.loss) == (7, 0.5, 0.01)
    assert row.fidelity is None


def test_fidelity_sweep_approaches_one():
    rows = fidelity_sweep([10, 100, 1000])
    values = [row.fidelity for row in rows]
    assert values == sorted(values)
    assert values[-1] > 0.999_99
    assert all(v <= 1.0 + 1e-12 for v in values)


def test_discrimination_reference_point():
    assert discrimination_success(10, 1.0) == pytest.approx(
        0.8902730348905701, abs=1e-12)


def test_discrimination_perfect_absorber_formula():
    # blocked arm: survival cos(pi/2n)^2n toward 1; open arm: photon ends V
    for n in (5, 20, 80):
        expected = 0.5 * (np.cos(np.pi / (2 * n)) ** (2 * n) + 1.0)
        assert discrimination_success(n, 1.0) == pytest.approx(expected, abs=1e-12)


def test_discrimination_monotone_in_n():
    values = [discrimination_success(n, 0.5) for n in (10, 40, 160, 640)]
    assert values == sorted(values)


def test_discrimination_weak_absorber_crossing():
    # an eps=0.25 absorber needs more cycles to reach the eps=1, n=10 score
    ref = discrimination_success(10, 1.0)
    assert discrimination_success(132, 0.25) < ref
    assert discrimination_success(133, 0.25) >= ref


def test_yield_formula_values():
    prof = ImperfectionProfile(p=0.9, q=0.8, r=0.7, s=0.6, eta=0.5)
    assert yield_formula("memory", prof) == pytest.approx(
        0.5 ** 2 * 0.9 ** 4 * 0.8 ** 5 * 0.7 ** 4)
    assert yield_formula("half-memory-keep-control", prof) == pytest.approx(
        0.5 * 0.9 ** 2 * 0.8 ** 3 * 0.7 ** 3)
    assert yield_formula("half-memory-keep-target", prof) == pytest.approx(
        0.5 * 0.9 ** 4 * 0.8 ** 3 * 0.7 ** 2 * 0.6 ** 2)
    assert yield_formula("direct-cx", prof) == pytest.approx(
        0.9 ** 2 * 0.8 ** 2 * 0.7 * 0.6)
    assert yield_formula("direct-cz", prof) == yield_formula("direct-cx", prof)
    with pytest.raises(ValueError):
        yield_formula("nonsense", prof)


@pytest.mark.parametrize("family", CNOT_FAMILIES)
def test_yield_formula_matches_circuit_census(family):
    # the formula's exponents are exactly the shipped circuit's gate counts
    prof = ImperfectionProfile(p=0.93, q=0.87, r=0.81, s=0.75, eta=0.69)
    census = gate_census(cnot_circuit(family))
    product = (prof.p ** census["h_optical"] * prof.q ** census["qicz"]
               * prof.r ** census["cc"] * prof.s ** census["h_particle"]
               * prof.eta ** census["detectors"])
    assert yield_formula(family, prof) == pytest.approx(product, rel=1e-12)


def test_direct_beats_half_strict_and_tie():
    # direct wins iff s > eta * q * r**2
    assert direct_beats_half(ImperfectionProfile(q=0.9, r=0.9, s=0.99, eta=0.9))
    assert not direct_beats_half(ImperfectionProfile(q=0.9, r=0.9, s=0.1, eta=0.9))
    # exact boundary: s == eta * q * r**2 is a tie, reported False
    q, r, eta = 0.9, 0.8, 0.7
    assert not direct_beats_half(ImperfectionProfile(q=q, r=r, s=eta * q * r ** 2, eta=eta))


def test_draw_probabilities_order():
    prof = ImperfectionProfile(p=0.9, q=0.8, r=0.7, s=0.6, eta=0.5)
    probs = _draw_probabilities(cnot_circuit("direct-cx"), prof)
    # direct-cx order: h t, qicz, h t, particle h, qicz, cx
    assert probs.tolist() == [0.9, 0.8, 0.9, 0.6, 0.8, 0.7]


def test_monte_carlo_is_deterministic():
    prof = ImperfectionProfile(p=0.95, q=0.9, r=0.85, s=0.8, eta=0.75)
    program = cnot_circuit("memory")
    a = monte_carlo_yield(program, prof, trials=20_000, master_seed=42)
    b = monte_carlo_yield(program, prof, trials=20_000, master_seed=42)
    assert a.estimate == b.estimate
    assert a.stderr == b.stderr


def test_monte_carlo_chunk_invariant(monkeypatch):
    prof = ImperfectionProfile(p=0.95, q=0.9, r=0.85, s=0.8, eta=0.75)
    program = cnot_circuit("direct-cx")
    monkeypatch.setattr(analysis, "MC_CHUNK", 128)
    a = monte_carlo_yield(program, prof, trials=10_000, master_seed=9)
    monkeypatch.setattr(analysis, "MC_CHUNK", 10_000)
    b = monte_carlo_yield(program, prof, trials=10_000, master_seed=9)
    assert a.estimate == b.estimate


def test_monte_carlo_agrees_with_formula():
    prof = ImperfectionProfile(p=0.97, q=0.93, r=0.9, s=0.88, eta=0.92)
    for family in ("memory", "direct-cx"):
        program = cnot_circuit(family)
        result = monte_carlo_yield(program, prof, trials=200_000, master_seed=3)
        truth = yield_formula(family, prof)
        sigma = np.sqrt(truth * (1 - truth) / result.trials)
        assert abs(result.estimate - truth) < 4 * sigma


def test_monte_carlo_perfect_profile_is_exact():
    result = monte_carlo_yield(cnot_circuit("memory"), ImperfectionProfile(),
                               trials=100, master_seed=1)
    assert result.estimate == 1.0
    assert result.stderr == 0.0


def test_monte_carlo_rejects_bad_trials():
    with pytest.raises(ValueError):
        monte_carlo_yield(cnot_circuit("memory"), ImperfectionProfile(),
                          trials=0, master_seed=1)
