"""The engine's transfer powers T_k^N against a 50-digit reference.

`helpers.reference_powers` squares each T_k in stdlib `decimal` with its own
pi and series, so it checks what `oracle.compare` cannot: at finite depth
the oracle reads the engine's own map, and a stack scaled or mis-exponented
for blocked counts passes there.  The grid is N in {17, 10^4, 10^6, 10^7}
times both theta rules, eps in {1, 0.9, 0.3, 1e-3}, loss in {0, 1e-6} and
k = 0..3; a `qi_run` case adds multi-position blocking on three particles.

The bounds are per depth, about twice the largest deviation measured over
the grid on x86-64 Linux, where `np.longdouble` has a 64-bit mantissa:

| N | open, no loss | open, loss 1e-6 | blocked (k >= 1) |
|---|---|---|---|
| 17 | 5.0e-20 | 6.5e-20 | 7.9e-19 |
| 10^4 | 5.0e-20 | 3.4e-17 | 3.4e-16 |
| 10^6 | 5.0e-20 | 2.1e-15 | 2.9e-14 |
| 10^7 | 5.0e-20 | 2.3e-16 | 4.0e-13 |

Where `np.longdouble` is plain float64 these bounds do not hold.
"""

from itertools import product

import numpy as np
import pytest

from helpers import exact_decimal, reference_powers
from zenosim.interrogation import KEEP, PI_OVER_2N, PI_OVER_N, QiParams, _power_stack, qi_run
from zenosim.state import PH_ONE_H, PH_ONE_V, PH_SINK, StateVector, particle, photon

# N -> largest absolute entry deviation allowed for the open stack without
# loss, the open stack with loss, and every blocked stack
BOUNDS = {
    17: (1e-19, 2e-19, 2e-18),
    10**4: (1e-19, 1e-16, 1e-15),
    10**6: (1e-19, 5e-15, 6e-14),
    10**7: (1e-19, 5e-16, 1e-12),
}
EPS = (1.0, 0.9, 0.3, 1e-3)
LOSS = (0.0, 1e-6)
KMAX = 3


def _bound(n: int, k: int, lam: float) -> float:
    open_clean, open_lossy, blocked = BOUNDS[n]
    return blocked if k else open_lossy if lam else open_clean


@pytest.mark.parametrize("n", sorted(BOUNDS))
def test_power_stacks_match_the_50_digit_reference(n):
    for rule, eps, lam in product((PI_OVER_N, PI_OVER_2N), EPS, LOSS):
        params = QiParams(cycles=n, theta_rule=rule, absorb_prob=eps, cycle_loss=lam)
        got = _power_stack(params, KMAX)
        want = reference_powers(n, rule == PI_OVER_2N, eps, lam, KMAX)
        for k in range(KMAX + 1):
            worst = max(abs(exact_decimal(got[k, i, j]) - want[k][i][j])
                        for i in range(2) for j in range(2))
            assert worst <= _bound(n, k, lam), (rule, eps, lam, k, float(worst))


# three 3-position particles with their blocking sets: k runs 0..3
_POSITIONS = (3, 3, 3)
_BLOCKING = ([0, 2], [1], [0, 1])


@pytest.mark.parametrize("n, eps, lam", [(17, 0.3, 1e-6), (10**4, 0.9, 1e-6),
                                         (10**6, 1e-3, 0.0)])
def test_multi_position_run_matches_reference_stacks(n, eps, lam):
    layout = (photon("p"),) + tuple(particle(f"b{i}", positions=d)
                                    for i, d in enumerate(_POSITIONS))
    shape = tuple(s.dim for s in layout)
    rng = np.random.default_rng(n)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps /= np.linalg.norm(amps)
    params = QiParams(cycles=n, absorb_prob=eps, cycle_loss=lam, residual_v_policy=KEEP)
    out = qi_run(StateVector(layout, amps), "p", ["b0", "b1", "b2"], _BLOCKING, params)
    stacks = np.array([[[float(x) for x in row] for row in power]
                       for power in reference_powers(n, False, eps, lam, KMAX)])
    want = amps.copy()
    want[PH_SINK] = 0.0
    for rest in product(*(range(d + 1) for d in _POSITIONS)):
        if any(r == d for r, d in zip(rest, _POSITIONS)):  # an exploded level
            want[(slice(None),) + rest] = 0.0
            continue
        k = sum(r in blk for r, blk in zip(rest, _BLOCKING))
        h, v = amps[(PH_ONE_H,) + rest], amps[(PH_ONE_V,) + rest]
        want[(PH_ONE_H,) + rest] = stacks[k, 0, 0] * h + stacks[k, 0, 1] * v
        want[(PH_ONE_V,) + rest] = stacks[k, 1, 0] * h + stacks[k, 1, 1] * v
    # a stored amplitude adds one complex128 rounding to the stack's error
    assert np.abs(out.amps - want).max() <= BOUNDS[n][2] + 1e-15
