"""Every leaf of `run_all_branches`, and of the oracle, against a 50-digit
reference walk.

`helpers.reference_walk` walks a program in stdlib `decimal` at 60 digits
and shares nothing with the engine or the oracle but the program, so it
checks what engine-against-oracle cannot: how far each amplitude and
branch weight the engine gives is from the true value.  (At finite depth
the oracle reads the engine's own interrogation map.)  Leaves pair by
position: both walks go depth first in outcome order, and each pair must
have the same layout, classical record and failure flag.

Every bound is `helpers.rounding_bounds(program)`, argued there from
rounding, with u = 2^-53 and I the program's instruction count: 2uI on a
part of an unnormalized amplitude (the engine's on generated programs at
four depths, and the oracle's in `tests/test_oracle.py`), so 2uI / sqrt(w)
on a normalized one of branch weight w, and 2u(2I + 1) on a branch weight
and a success probability.

The grid is the 12 shipped demos at the exact limit, and at N in
{17, 333, 10^4} x absorb {1, 0.9} x loss {0, 1e-3}, under the pi/N rule
and the route-to-sink policy: 156 cases.  At loss 1e-3 and N = 10^4 a kept
branch of cnot-memory weighs 1.3e-10, and its normalized amplitudes lie up
to 8e-13 from the walk's.
"""

from decimal import Decimal
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import reference_walk, rounding_bounds
from test_properties import valid_programs
from zenosim.circuits import DEMOS, run_all_branches
from zenosim.interrogation import KEEP, PI_OVER_2N, QiParams
from zenosim.oracle import brute_force_run

DEPTHS = (None, 17, 333, 10**4)
ABSORB = (1.0, 0.9)
LOSS = (0.0, 1e-3)


def _amplitude_deviation(got: list, want: list, unnormalized: bool) -> Decimal:
    """The largest deviation of a real or imaginary part of an amplitude in
    `got`, one (layout, record, failed, amplitudes) per leaf, from the walk
    leaf it pairs with, once the leaves are checked to pair: as many, and
    each pair with the same layout, shape, record and failure flag.  Both
    are scaled by the square root of the walk leaf's branch weight, but a
    `got` amplitude that is `unnormalized` already is."""
    assert len(got) == len(want), (len(got), len(want))
    worst = Decimal(0)
    zero = (Decimal(0), Decimal(0))
    for (layout, record, failed, amps), ref in zip(got, want):
        assert (layout, amps.shape) == (ref.names, ref.dims)
        assert (record, failed) == (ref.classical, ref.failed)
        scale = ref.weight.sqrt()
        own = Decimal(1) if unnormalized else scale
        for idx in np.ndindex(amps.shape):
            re, im = ref.amps.get(idx, zero)
            value = amps[idx]
            worst = max(worst, abs(Decimal(value.real) * own - re * scale),
                        abs(Decimal(value.imag) * own - im * scale))
    return worst


def deviations(program, params: QiParams,
               unnormalized: bool = False) -> tuple[Decimal, Decimal, Decimal]:
    """The largest deviation from the walk of a part of a `run_all_branches`
    leaf amplitude (see `_amplitude_deviation`; with `unnormalized`, times
    the square root of the leaf's branch weight), of a branch weight, and
    of a success probability, once the leaves pair.  A failed leaf's
    success probability must be 0; a kept leaf's is compared with the
    walk's branch weight times its norm squared."""
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


def assert_within_rounding(program, params: QiParams, unnormalized: bool = False) -> None:
    """`deviations` within `rounding_bounds`: the amplitude bound, and the
    weight bound on both the branch weight and the success probability."""
    bound = rounding_bounds(program)
    amp, weight, success = deviations(program, params, unnormalized)
    assert amp <= bound.amplitude and max(weight, success) <= bound.weight, (
        params, float(amp), float(weight), float(success), bound)


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
    """Every case of the grid at `depth` within the demo's rounding bounds,
    each under a params object of its own, so that no stack a run before
    kept on it is read."""
    cases = ([(1.0, 0.0)] if depth is None
             else [(absorb, loss) for absorb in ABSORB for loss in LOSS])
    for absorb, loss in cases:
        assert_within_rounding(DEMOS[name](), QiParams(cycles=depth, absorb_prob=absorb,
                                                      cycle_loss=loss))


@pytest.mark.parametrize("depth", DEPTHS, ids=lambda d: "exact" if d is None else str(d))
@pytest.mark.parametrize("name", sorted(DEMOS))
def test_leaves_match_the_50_digit_walk(name, depth):
    assert_demo_matches_the_walk(name, depth)


# generated programs at the exact limit, at N = 3 with absorb 0.8 and loss
# 1e-3, at N = 333 under the pi/2N rule keeping the residual |1V>, and at
# N = 10^4 with absorb 0.9
GENERATED = (QiParams(cycles=None),
             QiParams(cycles=3, absorb_prob=0.8, cycle_loss=1e-3),
             QiParams(cycles=333, theta_rule=PI_OVER_2N, residual_v_policy=KEEP),
             QiParams(cycles=10**4, absorb_prob=0.9))


@settings(max_examples=60, deadline=None)
@given(program=valid_programs())
def test_generated_leaves_match_the_50_digit_walk(program):
    for params in GENERATED:
        assert_within_rounding(program, params, unnormalized=True)
