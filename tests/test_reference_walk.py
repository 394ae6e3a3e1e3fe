"""Every leaf of `run_all_branches`, and of the oracle, against a 50-digit
reference walk.

`helpers.reference_walk` walks a program in stdlib `decimal` at 60 digits
and shares nothing with the engine or the oracle but the program, so it
checks what engine-against-oracle cannot: how far each amplitude and
branch weight the engine gives is from the true value.  (At finite depth
the oracle reads the engine's own interrogation map.)  Leaves pair by
position: both walks go depth first in outcome order, and each pair must
have the same layout, classical record and failure flag.

The walk checks the oracle too: `oracle_deviation` pairs the leaves of
`oracle.brute_force_run` with it, and `tests/test_oracle.py` bounds the
deviation of an unnormalized oracle amplitude from the walk's amplitude
times the square root of its branch weight by 7.2e-16 over the shipped
programs and by 1.6e-15 over generated ones.  Engine runs of generated
programs are bounded here the same way, unnormalized, at four depths.

The grid is the 12 shipped demos at the exact limit, and at N in
{17, 333, 10^4} x absorb {1, 0.9} x loss {0, 1e-3}, under the pi/N rule
and the route-to-sink policy: 156 cases, about 0.4 s of Tier-1 on a
shared 2-core host.

The bounds are absolute, per demo and depth: the largest deviation of a
real or imaginary part of a leaf amplitude, then of a branch weight, at
about twice the largest measured over the depth's cases on x86-64 Linux
(OpenBLAS, `np.longdouble` with a 64-bit mantissa):

| demo | exact limit | 17 | 333 | 10^4 |
|---|---|---|---|---|
| bell | 9.7e-17 / 6.7e-16 | 1.5e-16 / 6.8e-16 | 2.4e-16 / 8.0e-16 | 1.5e-16 / 7.3e-16 |
| cnot-direct-cx | 1.3e-16 / 7.2e-16 | 4.1e-16 / 6.1e-16 | 3.5e-16 / 9.9e-16 | 2.6e-16 / 9.1e-16 |
| cnot-direct-cz | 1.3e-16 / 7.2e-16 | 2.0e-16 / 7.2e-16 | 2.5e-16 / 1.1e-15 | 2.1e-16 / 9.9e-16 |
| cnot-half-memory-keep-control | 9.7e-17 / 3.6e-16 | 3.0e-16 / 4.1e-16 | 1.6e-16 / 4.8e-16 | 3.7e-15 / 5.7e-16 |
| cnot-half-memory-keep-target | 1.3e-16 / 5.8e-16 | 3.4e-16 / 7.2e-16 | 3.2e-16 / 8.5e-16 | 2.2e-14 / 7.8e-16 |
| cnot-memory | 9.7e-17 / 1.8e-16 | 3.7e-16 / 1.7e-16 | 3.6e-16 / 2.0e-16 | 1.6e-12 / 2.0e-16 |
| memory | 1.3e-16 / 3.6e-16 | 3.6e-16 / 5.7e-16 | 3.4e-16 / 4.5e-16 | 6.4e-15 / 3.9e-16 |
| qicz | 0 / 0 | 7.6e-17 / 0 | 1.2e-16 / 0 | 3.2e-16 / 0 |
| toffoli | 4.5e-16 / 0 | 4.5e-16 / 0 | 4.5e-16 / 0 | 4.5e-16 / 0 |
| wstate-2 | 1.3e-16 / 5.4e-16 | 2.3e-16 / 6.2e-16 | 3.2e-16 / 8.9e-16 | 2.9e-15 / 8.0e-16 |
| wstate-3 | 1.1e-15 / 2.4e-16 | 1.2e-15 / 1.1e-16 | 1.2e-15 / 1.2e-16 | 3.2e-14 / 2.0e-16 |
| wstate-4 | 5.6e-16 / 3.2e-16 | 5.8e-16 / 2.4e-16 | 5.8e-16 / 4.0e-16 | 1.3e-14 / 2.7e-16 |

A program without a measurement has the weight 1 exactly.  Where an
amplitude bound at 10^4 stands far above the rest of its row (memory,
the half-memory and memory CNOTs, the W states), its worst case is at
loss 1e-3 on a kept branch of small weight (1.3e-10 on cnot-memory,
2.8e-6 to 2.3e-5 on the others): renormalizing that branch scales the
engine's absolute error by one over the square root of its weight.
"""

from decimal import Decimal
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import reference_walk
from test_properties import valid_programs
from zenosim.circuits import DEMOS, run_all_branches
from zenosim.interrogation import KEEP, PI_OVER_2N, QiParams
from zenosim.oracle import brute_force_run

DEPTHS = (None, 17, 333, 10**4)
ABSORB = (1.0, 0.9)
LOSS = (0.0, 1e-3)

# demo -> per depth of DEPTHS, the largest deviation allowed of a leaf
# amplitude's real or imaginary part and of a branch weight
BOUNDS = {
    "bell": ((9.7e-17, 6.7e-16), (1.5e-16, 6.8e-16), (2.4e-16, 8.0e-16), (1.5e-16, 7.3e-16)),
    "cnot-direct-cx": ((1.3e-16, 7.2e-16), (4.1e-16, 6.1e-16), (3.5e-16, 9.9e-16),
                       (2.6e-16, 9.1e-16)),
    "cnot-direct-cz": ((1.3e-16, 7.2e-16), (2.0e-16, 7.2e-16), (2.5e-16, 1.1e-15),
                       (2.1e-16, 9.9e-16)),
    "cnot-half-memory-keep-control": ((9.7e-17, 3.6e-16), (3.0e-16, 4.1e-16),
                                      (1.6e-16, 4.8e-16), (3.7e-15, 5.7e-16)),
    "cnot-half-memory-keep-target": ((1.3e-16, 5.8e-16), (3.4e-16, 7.2e-16),
                                     (3.2e-16, 8.5e-16), (2.2e-14, 7.8e-16)),
    "cnot-memory": ((9.7e-17, 1.8e-16), (3.7e-16, 1.7e-16), (3.6e-16, 2.0e-16),
                    (1.6e-12, 2.0e-16)),
    "memory": ((1.3e-16, 3.6e-16), (3.6e-16, 5.7e-16), (3.4e-16, 4.5e-16), (6.4e-15, 3.9e-16)),
    "qicz": ((0, 0), (7.6e-17, 0), (1.2e-16, 0), (3.2e-16, 0)),
    "toffoli": ((4.5e-16, 0), (4.5e-16, 0), (4.5e-16, 0), (4.5e-16, 0)),
    "wstate-2": ((1.3e-16, 5.4e-16), (2.3e-16, 6.2e-16), (3.2e-16, 8.9e-16), (2.9e-15, 8.0e-16)),
    "wstate-3": ((1.1e-15, 2.4e-16), (1.2e-15, 1.1e-16), (1.2e-15, 1.2e-16), (3.2e-14, 2.0e-16)),
    "wstate-4": ((5.6e-16, 3.2e-16), (5.8e-16, 2.4e-16), (5.8e-16, 4.0e-16), (1.3e-14, 2.7e-16)),
}


def _amplitude_deviation(got: list, want: list, unnormalized: bool) -> Decimal:
    """The largest deviation of a real or imaginary part of an amplitude in
    `got`, one (layout, record, failed, amplitudes) per leaf, from the walk
    leaf it pairs with, once the leaves are checked to pair: as many, and
    each pair with the same layout, shape, record and failure flag.  With
    `unnormalized`, each walk amplitude is scaled by the square root of its
    branch weight first."""
    assert len(got) == len(want), (len(got), len(want))
    worst = Decimal(0)
    zero = (Decimal(0), Decimal(0))
    for (layout, record, failed, amps), ref in zip(got, want):
        assert (layout, amps.shape) == (ref.names, ref.dims)
        assert (record, failed) == (ref.classical, ref.failed)
        scale = ref.weight.sqrt() if unnormalized else Decimal(1)
        for idx in np.ndindex(amps.shape):
            re, im = ref.amps.get(idx, zero)
            value = amps[idx]
            worst = max(worst, abs(Decimal(value.real) - re * scale),
                        abs(Decimal(value.imag) - im * scale))
    return worst


def deviations(program, params: QiParams,
               unnormalized: bool = False) -> tuple[Decimal, Decimal, Decimal]:
    """The largest deviation from the walk of a real or imaginary part of a
    `run_all_branches` leaf amplitude (times the square root of its branch
    weight, with `unnormalized`), of a branch weight, and of a success
    probability, once the leaves pair (see `_amplitude_deviation`).  A
    failed leaf's success probability must be 0; a kept leaf's is compared
    with the walk's branch weight times its norm squared."""
    want = reference_walk(program, params)
    got = run_all_branches(program, params)
    amp = _amplitude_deviation(
        [(tuple(s.name for s in leaf.final_state.layout), leaf.classical, leaf.failed,
          leaf.final_state.amps * sqrt(leaf.branch_weight) if unnormalized
          else leaf.final_state.amps) for leaf in got], want, unnormalized)
    weight = success = Decimal(0)
    for leaf, ref in zip(got, want):
        weight = max(weight, abs(Decimal(leaf.branch_weight) - ref.weight))
        if leaf.failed:
            assert leaf.success_probability == 0.0
        else:
            norm_sq = sum(re * re + im * im for re, im in ref.amps.values())
            success = max(success, abs(Decimal(leaf.success_probability)
                                       - ref.weight * norm_sq))
    return amp, weight, success


def oracle_deviation(program, params: QiParams) -> Decimal:
    """The largest deviation of a real or imaginary part of a
    `brute_force_run` leaf amplitude, which is unnormalized, from the walk
    leaf's amplitude times the square root of its branch weight, once the
    leaves pair (see `_amplitude_deviation`)."""
    leaves = brute_force_run(program, params).leaves
    return _amplitude_deviation(
        [(leaf.layout, leaf.assignments, leaf.failed, leaf.vector) for leaf in leaves],
        reference_walk(program, params), unnormalized=True)


def assert_demo_matches_the_walk(name: str, depth) -> None:
    """Every case of the grid at `depth` within the demo's bounds there,
    each under a params object of its own, so that no stack a run before
    kept on it is read."""
    amp_bound, weight_bound = BOUNDS[name][DEPTHS.index(depth)]
    cases = ([(1.0, 0.0)] if depth is None
             else [(absorb, loss) for absorb in ABSORB for loss in LOSS])
    for absorb, loss in cases:
        params = QiParams(cycles=depth, absorb_prob=absorb, cycle_loss=loss)
        amp, weight, _ = deviations(DEMOS[name](), params)
        assert amp <= amp_bound and weight <= weight_bound, (
            absorb, loss, float(amp), float(weight))


@pytest.mark.parametrize("depth", DEPTHS, ids=lambda d: "exact" if d is None else str(d))
@pytest.mark.parametrize("name", sorted(DEMOS))
def test_leaves_match_the_50_digit_walk(name, depth):
    assert_demo_matches_the_walk(name, depth)


def test_bounds_cover_every_demo():
    assert sorted(BOUNDS) == sorted(DEMOS)
    assert all(len(row) == len(DEPTHS) for row in BOUNDS.values())


# generated programs at the exact limit, at N = 3 with absorb 0.8 and loss
# 1e-3, at N = 333 under the pi/2N rule keeping the residual |1V>, and at
# N = 10^4 with absorb 0.9; the bounds on an unnormalized amplitude part, a
# branch weight and a success probability are about twice the worst
# measured over 6,100 programs on x86-64 Linux: 1.8e-15, 1.0e-15 and 1.2e-15
GENERATED = (QiParams(cycles=None),
             QiParams(cycles=3, absorb_prob=0.8, cycle_loss=1e-3),
             QiParams(cycles=333, theta_rule=PI_OVER_2N, residual_v_policy=KEEP),
             QiParams(cycles=10**4, absorb_prob=0.9))
GENERATED_BOUNDS = (3.6e-15, 2.0e-15, 2.5e-15)


@settings(max_examples=60, deadline=None)
@given(program=valid_programs())
def test_generated_leaves_match_the_50_digit_walk(program):
    for params in GENERATED:
        found = deviations(program, params, unnormalized=True)
        assert all(d <= bound for d, bound in zip(found, GENERATED_BOUNDS)), (
            params, [float(d) for d in found])
