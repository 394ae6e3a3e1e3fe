"""Derived quantities: interrogation survival and fidelity sweeps, the
two-sided discrimination success, closed-form circuit yields under
component imperfections, and a Monte Carlo estimator for the same yields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import (
    DIRECT_CX,
    DIRECT_CZ,
    HALF_MEMORY_KEEP_CONTROL,
    HALF_MEMORY_KEEP_TARGET,
    INTEGER,
    MEMORY,
    CircuitProgram,
)
from .gates import ImperfectionProfile
from .interrogation import KEEP, PI_OVER_2N, PI_OVER_N, QiParams, qi_run, qicz
from .state import (
    BLOCKED,
    OPEN,
    PH_ONE_H,
    PH_ONE_V,
    fidelity,
    level_weight,
    new_state,
    norm_sq,
    particle,
    photon,
    StateVector,
)


@dataclass
class SweepRow:
    n_cycles: int
    theta_rule: str
    absorb: float
    loss: float
    survival: float | None = None
    fidelity: float | None = None


def _blocked_pair(levels):
    layout = [photon("p"), particle("b")]
    return new_state(layout, levels)


def zeno_sweep(n_values, theta_rule: str = PI_OVER_N, absorb: float = 1.0,
               loss: float = 0.0) -> list[SweepRow]:
    """Survival probability of a horizontal photon against a blocking
    particle, per cycle count."""
    rows = []
    for n in n_values:
        params = QiParams(cycles=int(n), theta_rule=theta_rule,
                          absorb_prob=absorb, cycle_loss=loss)
        state = _blocked_pair([PH_ONE_H, BLOCKED])
        out = qi_run(state, "p", ["b"], [BLOCKED], params)
        rows.append(SweepRow(int(n), theta_rule, absorb, loss,
                             survival=norm_sq(out)))
    return rows


def fidelity_sweep(n_values, theta_rule: str = PI_OVER_N, absorb: float = 1.0,
                   loss: float = 0.0) -> list[SweepRow]:
    """Overlap of the finite-cycle interrogation CZ with its exact limit on
    the uniform two-qubit input, per cycle count.  `QiParams` defines that
    limit for the pi/N rule only and raises for any other."""
    state = _blocked_pair([0, BLOCKED])
    amps = np.zeros_like(state.amps)
    amps[0, BLOCKED] = amps[0, OPEN] = 0.5
    amps[PH_ONE_H, BLOCKED] = amps[PH_ONE_H, OPEN] = 0.5
    state = StateVector(state.layout, amps)
    ideal = qicz(state, "p", "b", QiParams(cycles=None, theta_rule=theta_rule))
    ideal = StateVector(ideal.layout, ideal.amps / np.sqrt(norm_sq(ideal)))
    rows = []
    for n in n_values:
        params = QiParams(cycles=int(n), theta_rule=theta_rule,
                          absorb_prob=absorb, cycle_loss=loss)
        out = qicz(state, "p", "b", params)
        out = StateVector(out.layout, out.amps / np.sqrt(norm_sq(out)))
        rows.append(SweepRow(int(n), theta_rule, absorb, loss,
                             fidelity=fidelity(ideal, out)))
    return rows


def discrimination_success(n: int, absorb: float,
                           loss: float = 0.0) -> float:
    """Probability of correctly telling a blocking from a transparent
    particle with one horizontal photon and a quarter-turn per cycle.

    The photon is measured in H/V at the end: H names the blocking case, V
    the transparent one.  Absorbed, lost and sunk photons give no answer
    and count against the average of the two equiprobable cases.
    """
    params = QiParams(cycles=int(n), theta_rule=PI_OVER_2N,
                      absorb_prob=absorb, cycle_loss=loss,
                      residual_v_policy=KEEP)
    blocked = qi_run(_blocked_pair([PH_ONE_H, BLOCKED]), "p", ["b"],
                     [BLOCKED], params)
    open_ = qi_run(_blocked_pair([PH_ONE_H, OPEN]), "p", ["b"],
                   [BLOCKED], params)
    return 0.5 * (level_weight(blocked, "p", PH_ONE_H)
                  + level_weight(open_, "p", PH_ONE_V))


def yield_formula(family: str, profile: ImperfectionProfile) -> float:
    """Closed-form probability that every component of one CNOT attempt
    works, per family."""
    p, q, r, s, eta = (profile.p, profile.q, profile.r, profile.s,
                       profile.eta)
    if family == MEMORY:
        return eta ** 2 * p ** 4 * q ** 5 * r ** 4
    if family == HALF_MEMORY_KEEP_CONTROL:
        return eta * p ** 2 * q ** 3 * r ** 3
    if family == HALF_MEMORY_KEEP_TARGET:
        return eta * p ** 4 * q ** 3 * r ** 2 * s ** 2
    if family in (DIRECT_CX, DIRECT_CZ):
        return p ** 2 * q ** 2 * r * s
    raise ValueError(f"unknown family {family!r}")


def direct_beats_half(profile: ImperfectionProfile) -> bool:
    """True when the measurement-only realization strictly out-yields the
    one-memory realization; ties (within numerical margin) are False."""
    direct = yield_formula(DIRECT_CX, profile)
    half = yield_formula(HALF_MEMORY_KEEP_CONTROL, profile)
    if np.isclose(direct, half, rtol=1e-12, atol=1e-15):
        return False
    return direct > half


@dataclass
class YieldEstimate:
    estimate: float
    stderr: float
    trials: int
    master_seed: int


# trials drawn per block in monte_carlo_yield.  It bounds the memory of one
# call: a block's uniforms and padded success rows take under 0.6 MB at 15
# draws a trial, so a block stays in cache.  The estimate does not depend
# on it, since the blocks only cut one stream into pieces
MC_CHUNK = 1 << 12

# one uint64 word of eight True bytes: a trial's padded success row is all
# such words exactly when every one of its draws succeeds
_ALL_TRUE = np.uint64(0x0101010101010101)


def _draw_probabilities(program: CircuitProgram,
                        profile: ImperfectionProfile) -> np.ndarray:
    return np.asarray([getattr(profile, instr.charge)
                       for instr in program.instructions if instr.charge],
                      dtype=np.float64)


def monte_carlo_yield(program: CircuitProgram, profile: ImperfectionProfile,
                      trials: int, master_seed: int) -> YieldEstimate:
    """Sampled fraction of trials in which every imperfectible instruction
    succeeds.  Trial t consumes the t-th block of draws from one
    counter-based stream keyed by the master seed, one uniform per
    imperfectible instruction in program order, so the estimate is
    reproducible bit for bit for a given seed and trial count."""
    if trials < 1:
        raise ValueError("need a positive trial count")
    if not INTEGER.check(master_seed):
        raise ValueError(f"seed must be {INTEGER.describe}, got {master_seed!r}")
    master_seed = int(master_seed)
    if not 0 <= master_seed < 1 << 128:
        raise ValueError(f"seed must be in [0, 2**128), got {master_seed}")
    probs = _draw_probabilities(program, profile)
    k = probs.size
    if k == 0:
        return YieldEstimate(1.0, 0.0, trials, master_seed)
    rng = np.random.Generator(np.random.Philox(key=master_seed))
    rows = min(MC_CHUNK, trials)
    u = np.empty((rows, k))
    # success flags, each row padded with True to whole words
    ok = np.ones((rows, -(-k // 8) * 8), dtype=bool)
    words = ok.view(np.uint64)
    acc = np.empty(rows, dtype=np.uint64)
    successes = 0
    for done in range(0, trials, rows):
        m = min(rows, trials - done)
        rng.random(out=u[:m])
        np.less(u[:m], probs, out=ok[:m, :k])
        # flags are 0 or 1 bytes, so the AND of a row's words is all True
        # only when each word is
        row = words[:m, 0]
        for j in range(1, words.shape[1]):
            row = np.bitwise_and(row, words[:m, j], out=acc[:m])
        successes += int(np.count_nonzero(row == _ALL_TRUE))
    estimate = successes / trials
    stderr = float(np.sqrt(estimate * (1.0 - estimate) / trials))
    return YieldEstimate(estimate, stderr, trials, master_seed)
