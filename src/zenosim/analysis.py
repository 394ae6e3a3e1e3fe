"""Derived quantities: interrogation survival and fidelity sweeps, the
two-sided discrimination success, closed-form circuit yields under
component imperfections, and a Monte Carlo estimator for the same yields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CircuitProgram, cnot_circuit, gate_census
from .gates import CHARGED, ImperfectionProfile
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
    _is_int,
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


def _sweep_params(n, theta_rule: str, absorb: float, loss: float) -> QiParams:
    """The params of one sweep row.  A row is a finite cycle count, so None,
    which `QiParams` takes as the exact limit, is refused; any other count
    is taken by `QiParams` as given."""
    if n is None:
        raise ValueError("a sweep takes cycle counts, not None (the exact limit)")
    return QiParams(cycles=n, theta_rule=theta_rule, absorb_prob=absorb, cycle_loss=loss)


def zeno_sweep(n_values, theta_rule: str = PI_OVER_N, absorb: float = 1.0,
               loss: float = 0.0) -> list[SweepRow]:
    """Survival probability of a horizontal photon against a blocking
    particle, per cycle count: each reaches `QiParams` as given, except
    None, the exact limit, which is refused (`_sweep_params`)."""
    state = _blocked_pair([PH_ONE_H, BLOCKED])
    rows = []
    for n in n_values:
        params = _sweep_params(n, theta_rule, absorb, loss)
        out = qi_run(state, "p", ["b"], [BLOCKED], params)
        rows.append(SweepRow(params.cycles, theta_rule, absorb, loss,
                             survival=norm_sq(out)))
    return rows


def fidelity_sweep(n_values, theta_rule: str = PI_OVER_N, absorb: float = 1.0,
                   loss: float = 0.0) -> list[SweepRow]:
    """Overlap of the finite-cycle interrogation CZ with its exact limit on
    the uniform two-qubit input, per cycle count.  `QiParams` defines that
    limit for the pi/N rule only and raises for any other; the cycle counts
    are taken as `zeno_sweep` takes them."""
    state = _blocked_pair([0, BLOCKED])
    amps = np.zeros_like(state.amps)
    amps[0, BLOCKED] = amps[0, OPEN] = 0.5
    amps[PH_ONE_H, BLOCKED] = amps[PH_ONE_H, OPEN] = 0.5
    state = StateVector(state.layout, amps)
    ideal = qicz(state, "p", "b", QiParams(cycles=None, theta_rule=theta_rule))
    ideal = StateVector(ideal.layout, ideal.amps / np.sqrt(norm_sq(ideal)))
    rows = []
    for n in n_values:
        params = _sweep_params(n, theta_rule, absorb, loss)
        out = qicz(state, "p", "b", params)
        out = StateVector(out.layout, out.amps / np.sqrt(norm_sq(out)))
        rows.append(SweepRow(params.cycles, theta_rule, absorb, loss,
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
    params = QiParams(cycles=n, theta_rule=PI_OVER_2N,
                      absorb_prob=absorb, cycle_loss=loss,
                      residual_v_policy=KEEP)
    blocked = qi_run(_blocked_pair([PH_ONE_H, BLOCKED]), "p", ["b"],
                     [BLOCKED], params)
    open_ = qi_run(_blocked_pair([PH_ONE_H, OPEN]), "p", ["b"],
                   [BLOCKED], params)
    return 0.5 * (level_weight(blocked, "p", PH_ONE_H)
                  + level_weight(open_, "p", PH_ONE_V))


def census_yield(census: dict[str, int], profile: ImperfectionProfile) -> float:
    """Closed-form probability that every charged component counted in a
    gate census (`circuits.gate_census`) works: each class's profile field
    (`gates.CHARGED`) to the power of its count, multiplied in the fixed
    order eta, p, q, r, s, since another order can move a yield's last
    bit.  A class of count 0 multiplies by exactly 1.0."""
    product = 1.0
    for c in ("detectors", "h_optical", "qicz", "cc", "h_particle"):
        product *= getattr(profile, CHARGED[c]) ** census[c]
    return product


def yield_formula(family: str, profile: ImperfectionProfile) -> float:
    """Closed-form probability that every component of one CNOT attempt
    works, per family: `census_yield` of `cnot_circuit(family)`'s census."""
    return census_yield(gate_census(cnot_circuit(family)), profile)


@dataclass
class YieldEstimate:
    estimate: float
    stderr: float
    trials: int
    master_seed: int


# trials drawn per block in monte_carlo_yield.  It bounds the memory of one
# call: a block's raw words, success flags and tiled limits take under
# 0.6 MB at 15 draws a trial, so a block stays in cache.  The estimate does
# not depend on it, since the blocks only cut one stream into pieces
MC_CHUNK = 1 << 12

# the limits are tiled over just more than this many draws, so that each
# row of the block's compare is longer than half of numpy's default ufunc
# buffer (8,192 elements) and runs in place, not copied through the buffer
# (at 4,096 draws or fewer the uint64 compare ran about 1.4 times as slow);
# at 15 draws a trial the tile takes 33 KB
_TILE_DRAWS = 1 << 12

# one uint64 word of eight True bytes: a trial's flag words, with the bytes
# past its own flags set True, AND to it exactly when every draw succeeds
_ALL_TRUE = np.uint64(0x0101010101010101)


def _draw_probabilities(program: CircuitProgram,
                        profile: ImperfectionProfile) -> np.ndarray:
    return np.asarray([getattr(profile, instr.charge)
                       for instr in program.instructions if instr.charge],
                      dtype=np.float64)


def _draw_limits(probs: np.ndarray) -> np.ndarray:
    """The largest raw Philox word that passes each chance p > 0:
    L = (ceil(p * 2**53) << 11) - 1, which wraps to 2**64 - 1 at p = 1."""
    return (np.ceil(probs * 2.0 ** 53).astype(np.uint64) << np.uint64(11)) - np.uint64(1)


def monte_carlo_yield(program: CircuitProgram, profile: ImperfectionProfile,
                      trials: int, master_seed: int) -> YieldEstimate:
    """Sampled fraction of trials in which every imperfectible instruction
    succeeds.  Trial t consumes the t-th block of draws from one
    counter-based stream keyed by the master seed, one uniform per
    imperfectible instruction in program order, so the estimate is
    reproducible bit for bit for a given seed and trial count.

    A draw is the uniform u = (x >> 11) * 2**-53 that numpy's
    `Generator.random` makes of the stream's 64-bit word x, and it succeeds
    when u < p.  Since p * 2**53 is exact, u < p exactly when
    (x >> 11) < ceil(p * 2**53), that is when

        x <= L = (ceil(p * 2**53) << 11) - 1,

    so the words are compared with the limits L (`_draw_limits`) and never
    turned into doubles.  A chance of 0 fails every trial, so such a
    program returns an estimate of 0 before drawing."""
    if not _is_int(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("need a positive trial count")
    if not _is_int(master_seed):
        raise ValueError(f"seed must be an integer, got {master_seed!r}")
    trials, master_seed = int(trials), int(master_seed)
    if not 0 <= master_seed < 1 << 128:
        raise ValueError(f"seed must be in [0, 2**128), got {master_seed}")
    probs = _draw_probabilities(program, profile)
    k = probs.size
    if k == 0:
        return YieldEstimate(1.0, 0.0, trials, master_seed)
    if not probs.all():
        return YieldEstimate(0.0, 0.0, trials, master_seed)
    bitgen = np.random.Philox(key=master_seed)
    rows = min(MC_CHUNK, trials)
    stretch = min(rows, _TILE_DRAWS // k + 1)
    tile = np.tile(_draw_limits(probs), stretch)
    # success flags in the draws' layout, with slack for the last trial's
    # last word; every byte stays 0 or 1
    ok = np.zeros(rows * k + 8, dtype=bool)
    # word j of each trial: its flag bytes 8*j to 8*j + 7, read unaligned
    # at stride k
    words = [np.ndarray(rows, np.uint64, ok, 8 * j, (k,)) for j in range(-(-k // 8))]
    # the bytes of the last word past the trial's own flags hold the next
    # trial's, so they are set True; built from bytes, so either byte order
    # reads it alike
    tail = np.zeros(8 * len(words), dtype=np.uint8)
    tail[k:] = True
    tail = tail.view(np.uint64)[-1]
    successes = 0
    for done in range(0, trials, rows):
        m = min(rows, trials - done)
        # the block's raw words, trial t's at t*k to t*k + k - 1, as the
        # stream gives them
        x = bitgen.random_raw(m * k)
        whole = m // stretch * stretch * k
        np.less_equal(x[:whole].reshape(-1, stretch * k), tile,
                      out=ok[:whole].reshape(-1, stretch * k))
        np.less_equal(x[whole:], tile[:m * k - whole], out=ok[whole:m * k])
        # a block's words are spent once compared, so the start of the block
        # collects each trial's AND of flag words
        row = np.bitwise_or(words[-1][:m], tail, out=x[:m])
        for word in words[:-1]:
            np.bitwise_and(row, word[:m], out=row)
        # a trial fails exactly when its AND differs from all True
        successes += m - int(np.count_nonzero(np.bitwise_xor(row, _ALL_TRUE, out=row)))
        # the spent block is dropped before the next is drawn, so one block
        # is alive at a time
        del x, row
    estimate = successes / trials
    stderr = float(np.sqrt(estimate * (1.0 - estimate) / trials))
    return YieldEstimate(estimate, stderr, trials, master_seed)
