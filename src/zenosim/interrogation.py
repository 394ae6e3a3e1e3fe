"""N-cycle quantum interrogation and the photon-particle controlled-Z gate.

One cycle rotates the photon's polarization block by theta, lets each
listed particle absorb from the vertical component at its blocking
positions, then applies per-cycle photon loss.  A blocked particle keeps
re-projecting the photon onto |1H>, so the surviving weight after N ideal
cycles is exactly cos^(2N)(theta); an open interferometer composes the N
rotations into R(N*theta), which for theta = pi/N is a sign flip.

Every cycle applies the same real 2x2 step to the (|1H>, |1V>) pair at a
given configuration of the other subsystems, T_k = keep_loss *
diag(1, keep_eps^k) * R(theta), where k counts the listed particles sitting
on a blocking position.  A finite run of N cycles is therefore one gathered
power T_k^N per configuration, by repeated squaring (the open configuration
k = 0 uses the exact angle N*theta): O(log N) instead of O(N).  Each
QiParams object squares its stack at most once per largest count kmax and
keeps it read-only, and keeps the gathered rows per shape of a run (the
rank of the gather and the run's plan), so every later run of that shape
under the same params only reads them; both memos die with the params
object.  The stack is squared in extended precision and rounded once to
float64, so the rows are float64 and their products with the amplitudes
are complex128.  Against a 50-digit reference (x86-64 long double), the
largest entry error of a stack before that rounding is 5e-20 for the open
sign flip without loss at any depth, 2.1e-15 for the open stack with loss
1e-6 at 10^6 cycles, and for blocked stacks 8e-19, 3.4e-16, 2.9e-14 and
4.0e-13 at 17, 10^4, 10^6 and 10^7 cycles.
The exact N -> infinity limit of the pi/N wiring runs through the same
gather with its own stack: diag(-1, -1), the full pi turn, for k = 0, and
diag(1, 0), |1H> frozen and |1V> absorbed, for every k >= 1.

Absorption (photon-sink x particle-exploded) and per-cycle loss are failure
events, so the amplitude they take from the pair is not stored anywhere: it
is the norm the pair loses, and it ends up in the norm deficit.  After the
cycles, qi_run drops the residual |1V> (under the route-to-sink policy) and
any amplitude on the interrogated photon's sink level and on the listed
particles' exploded levels.  The whole run is one linear map on the photon
and the listed particles, with the identity on every other subsystem.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .state import (
    PH_ONE_H,
    PH_ONE_V,
    PH_SINK,
    BLOCKED,
    StateVector,
    _check_probability,
    _is_int,
    expect,
    particle as particle_spec,
    photon as photon_spec,
)

PI_OVER_N = "pi_over_n"
PI_OVER_2N = "pi_over_2n"
THETA_RULES = (PI_OVER_N, PI_OVER_2N)

ROUTE_TO_SINK = "route_to_sink"
KEEP = "keep"

_PI = np.longdouble("3.14159265358979323846264338327950288")


@dataclass(frozen=True)
class QiParams:
    """Interrogation parameters.

    cycles is a positive integer (a bool is not one; a numpy integer is
    kept as the int it holds) or None; absorb_prob (in [0, 1]) and
    cycle_loss (in [0, 1)) are finite real numbers of any numpy width,
    kept as the Python float each holds, and a bool is not one either
    (`state._check_probability`, field by field in that order).  None
    selects the exact N -> infinity limit of the pi/N wiring (a pure
    controlled phase); finite cycles run the full dynamics.
    The limit models an absorbing particle without loss: it needs the pi/N
    rule, absorb_prob > 0 (any such absorber freezes the photon on |1H> as
    N grows, while a transparent one, absorb_prob = 0, lets it turn) and
    cycle_loss = 0 (a fixed per-cycle loss empties the photon as N grows).
    Other settings raise.
    """

    cycles: int | None = 10000
    theta_rule: str = PI_OVER_N
    absorb_prob: float = 1.0
    cycle_loss: float = 0.0
    residual_v_policy: str = ROUTE_TO_SINK

    def __post_init__(self):
        if self.cycles is not None:
            if not _is_int(self.cycles):
                raise ValueError(f"cycles must be an integer or None, got {self.cycles!r}")
            if self.cycles < 1:
                raise ValueError("cycles must be >= 1")
            # a numpy integer is kept as the int it holds, so no product of
            # the count wraps at its width
            object.__setattr__(self, "cycles", int(self.cycles))
        if self.theta_rule not in THETA_RULES:
            raise ValueError(f"unknown theta rule {self.theta_rule!r}")
        for field, closed in (("absorb_prob", True), ("cycle_loss", False)):
            value = _check_probability(field, getattr(self, field), closed)
            object.__setattr__(self, field, value)
        if self.cycles is None and self.theta_rule != PI_OVER_N:
            raise ValueError("the exact limit is defined for the pi/N rule only")
        if self.cycles is None and (self.absorb_prob == 0.0 or self.cycle_loss > 0.0):
            raise ValueError("the exact limit is defined for absorb_prob > 0 and "
                             "cycle_loss = 0 only")
        if self.residual_v_policy not in (ROUTE_TO_SINK, KEEP):
            raise ValueError(f"unknown residual policy {self.residual_v_policy!r}")

    @cached_property
    def _stacks(self) -> dict[int, np.ndarray]:
        """The read-only T_k^N stacks for k = 0..kmax computed so far under
        these params, keyed by kmax (filled by `_power_stack`)."""
        return {}

    @cached_property
    def _rows(self) -> dict[tuple, np.ndarray]:
        """The read-only T_k^N, rounded to float64, gathered per
        configuration of an interrogation's listed particles, keyed by the
        rank of the gather and the run's plan (filled by `_run_cycles`)."""
        return {}

    def __getstate__(self):
        # the stacks and rows are derived from the fields: copies and
        # pickles start without them and compute their own
        state = dict(self.__dict__)
        state.pop("_stacks", None)
        state.pop("_rows", None)
        return state


def theta_value(params: QiParams) -> np.longdouble:
    """Rotation angle per cycle, in extended precision."""
    if params.theta_rule == PI_OVER_2N:
        return _PI / (2 * params.cycles)
    return _PI / params.cycles


def wiring(specs, blocking=None) -> tuple[tuple[int, ...], ...]:
    """The one wiring rule of an interrogation: each spec a particle listed
    once, with one blocking entry (default `BLOCKED`), a position or a list
    of distinct positions short of the exploded level, each an integer and
    not a bool.  Returns them sorted."""
    if blocking is None:
        blocking = [BLOCKED] * len(specs)
    if len(blocking) != len(specs):
        raise ValueError("one blocking entry per particle required")
    out = []
    for i, (spec, entry) in enumerate(zip(specs, blocking)):
        positions = spec.positions()
        if spec in specs[:i]:
            raise ValueError(f"particle {spec.name!r} listed twice")
        if _is_int(entry):
            blk = (int(entry),)
        elif (isinstance(entry, Iterable) and not isinstance(entry, str)
              and all(map(_is_int, blk := tuple(entry)))):
            blk = tuple(sorted(map(int, blk)))
        else:
            raise ValueError(f"blocking entry for {spec.name!r} must be a position or a "
                             f"list of positions, got {entry!r}")
        if len(set(blk)) != len(blk):
            raise ValueError(f"duplicate blocking position for {spec.name!r}")
        for b in blk:
            if not 0 <= b < positions:
                raise ValueError(
                    f"blocking position {b} invalid for {spec.name!r} "
                    f"(positions 0..{positions - 1}; the exploded level cannot block)")
        out.append(blk)
    return tuple(out)


def _blocked_counts(shape, plan) -> np.ndarray:
    """Per rest index, how many listed particles sit on a blocking position.
    Every axis that no listed particle owns has size 1, so the counts (and
    the powers gathered by them) broadcast against the rest shape."""
    counts = np.zeros([1] * len(shape), dtype=np.intp)
    for rest_axis, blocking, _ in plan:
        on = np.zeros(shape[rest_axis], dtype=np.intp)
        on[list(blocking)] = 1
        counts = counts + on.reshape([-1 if i == rest_axis else 1 for i in range(len(shape))])
    return counts


def _cycle_powers(kmax, theta, eps, lam, m) -> np.ndarray:
    """T_k^m for k = 0..kmax, stacked, in extended precision.

    T_k = keep_loss * diag(1, keep_eps^k) * R(theta) is one cycle on the
    (|1H>, |1V>) pair with k absorbing encounters.  Blocked configurations
    use repeated squaring; the open one (k = 0) is taken from the exact
    angle m*theta instead, since squaring R doubles its angle error at every
    step and the pi/N sign flip must stay exact.  An absorber that never
    interacts (eps = 0) makes every T_k the open one.
    """
    one = np.longdouble(1)
    c, s = np.cos(theta), np.sin(theta)
    keep_eps = np.sqrt(one - np.longdouble(eps)) ** np.arange(kmax + 1)
    keep_loss = np.sqrt(one - np.longdouble(lam))
    step = np.empty((kmax + 1, 2, 2), dtype=np.longdouble)
    step[:, 0, 0], step[:, 0, 1] = c, -s
    step[:, 1, 0], step[:, 1, 1] = s * keep_eps, c * keep_eps
    step *= keep_loss
    # the squaring starts from an explicit identity: taking the first factor
    # as is would flip the signs of zero entries at m = 1 with eps = 1
    power = np.zeros(step.shape, dtype=np.longdouble)
    power[:, 0, 0] = power[:, 1, 1] = 1
    e = m
    while e:
        if e & 1:
            power = power @ step
        e >>= 1
        if e:
            step = step @ step
    phi = m * theta
    power[0] = keep_loss ** m * np.array([[np.cos(phi), -np.sin(phi)],
                                          [np.sin(phi), np.cos(phi)]])
    if eps == 0.0:
        power[1:] = power[0]
    return power


def _limit_powers(kmax) -> np.ndarray:
    """The exact N -> infinity limit of T_k^N under the pi/N rule, for
    k = 0..kmax: diag(-1, -1) when no listed particle blocks (the open
    interferometer's full pi turn, the sign flip on |1H>) and diag(1, 0)
    otherwise (the photon frozen on |1H>, and |1V> absorbed).  This is the
    deep runs' limit for any absorb_prob > 0 and no cycle loss, the only
    settings `QiParams` allows with cycles=None."""
    power = np.zeros((kmax + 1, 2, 2), dtype=np.longdouble)
    power[:, 0, 0] = 1
    power[0, 0, 0] = power[0, 1, 1] = -1
    return power


def _power_stack(params: QiParams, kmax: int) -> np.ndarray:
    """The read-only stack of T_k^N for k = 0..kmax under `params` (the exact
    limit's when cycles is None), computed on the first request for this
    params object and kmax and kept on the object after that.  Each k's
    slice has the same bits whatever kmax asked for it."""
    stack = params._stacks.get(kmax)
    if stack is None:
        if params.cycles is None:
            stack = _limit_powers(kmax)
        else:
            stack = _cycle_powers(kmax, theta_value(params), params.absorb_prob,
                                  params.cycle_loss, params.cycles)
        stack.flags.writeable = False
        params._stacks[kmax] = stack
    return stack


# Each params object keeps the gathered rows of at most _ROWS_ENTRIES plans
# (every shipped demo's runs and maps under one params take 23), dropping
# its oldest when full, and only rows of at most _ROWS_BYTES (128
# configurations of the listed particles, at 32 bytes of float64 each):
# with about 0.3 KiB per entry for its key and array header, at most
# 144 KiB per params object.
_ROWS_ENTRIES = 32
_ROWS_BYTES = 4096


def _run_cycles(work, plan: tuple, params: QiParams):
    """Run the interrogation in place on the photon-fronted view `work`: one
    gathered 2x2 per configuration of the listed particles, picked by its
    blocked count k from the params' memoized stack of T_k^N (squared once
    per params object and kmax in extended precision, O(log N)), or of the
    exact limit's when cycles is None, and broadcast over every other
    subsystem.  The stack is rounded once to float64 before the gather, and
    the new pair is p00 h + p01 v and p10 h + p11 v in complex128, with h a
    copy of the old |1H> slice.  The gathered rows depend only on the rank
    of `work`'s rest and on `plan`, so each params object keeps them per
    (rank, plan) and a later run with the same shape only reads them.  Only
    the (|1H>, |1V>) pair changes; what absorption and loss take from it is
    dropped."""
    h = work[PH_ONE_H].copy()
    v = work[PH_ONE_V]
    rows = params._rows
    key = (h.ndim, plan)
    p = rows.get(key)
    if p is None:
        # k never exceeds the number of listed particles, and each k's slice
        # has the same bits whatever kmax asked for it
        p = _power_stack(params, len(plan)).astype(np.float64)[_blocked_counts(h.shape, plan)]
        if p.nbytes <= _ROWS_BYTES:
            if len(rows) >= _ROWS_ENTRIES:
                del rows[next(iter(rows))]
            p.flags.writeable = False
            rows[key] = p
    work[PH_ONE_H] = p[..., 0, 0] * h + p[..., 0, 1] * v
    work[PH_ONE_V] = p[..., 1, 0] * h + p[..., 1, 1] * v


def _prepare(state: StateVector, photon: str, particles: list[str], blocking):
    # the photon's axis in the amplitudes, and per listed particle its axis
    # among the others (a batched state's branch axis leads both) and its
    # exploded level
    p_axis = state.axis(photon)
    expect(state.layout[p_axis], "a photon", "an interrogation")
    axes = [state.axis(name) for name in particles]
    blocks = wiring([state.layout[axis] for axis in axes], blocking)
    lead = 0 if state.batch is None else 1
    plan = tuple((lead + (axis - 1 if axis > p_axis else axis), blk,
                  state.layout[axis].positions()) for axis, blk in zip(axes, blocks))
    return lead + p_axis, plan


def qi_run(state: StateVector, photon: str, particles: list[str],
           blocking, params: QiParams) -> StateVector:
    """Full interrogation: one 2x2 on (|1H>, |1V>) per blocked count, for N
    cycles or the exact limit, then the residual-|1V> policy and pruning of
    the photon's sink level and the listed particles' exploded levels into
    the norm deficit.  Every other subsystem is left as it is, and a batched
    state's branches are run together, elementwise."""
    p_axis, plan = _prepare(state, photon, particles, blocking)
    amps = state.amps.copy()
    work = amps.transpose([p_axis] + [a for a in range(amps.ndim) if a != p_axis])
    _run_cycles(work, plan, params)
    if params.residual_v_policy == ROUTE_TO_SINK:
        work[PH_ONE_V] = 0.0
    work[PH_SINK] = 0.0
    for rest_axis, _, exploded in plan:
        work[(slice(None),) * (rest_axis + 1) + (exploded,)] = 0.0
    return StateVector(state.layout, amps, state.batch)


def qicz(state: StateVector, photon: str, particle: str,
         params: QiParams) -> StateVector:
    """Controlled-Z between a photon and a 2-position particle: the particle
    blocks at position 0, so the sign flip lands exactly on |1H> x |open>.
    The photon is checked first, as the validator checks its arguments."""
    expect(state.spec(photon), "a photon", "qicz")
    expect(state.spec(particle), "a 2-position particle", "qicz")
    return qi_run(state, photon, [particle], [BLOCKED], params)


def qicz_multi(state: StateVector, photon: str, particles: list[str],
               params: QiParams, blocking=None) -> StateVector:
    """Multi-particle controlled phase: any particle sitting on a blocking
    position freezes the rotation; the sign flip occurs only when all are
    clear.  An empty particle list degenerates to an unconditional flip."""
    return qi_run(state, photon, list(particles), blocking, params)


def effective_map(params: QiParams, n_particles: int,
                  particle_positions: list[int] | None = None,
                  blocking=None) -> np.ndarray:
    """The linear map of qicz/qicz_multi on the photon and its particles.

    Index convention: photon slowest, then particles in list order.  The
    map comes from one batched qi_run on every basis input at once, so one
    transfer-matrix power (O(log N)) per blocked count serves all columns;
    results are memoized on (params, positions, blocking).
    """
    if particle_positions is None:
        particle_positions = [2] * n_particles
    if n_particles < 0 or len(particle_positions) != n_particles:
        raise ValueError("need a nonnegative particle count and one position count per particle")
    specs = [particle_spec(f"b{i}", positions=d) for i, d in enumerate(particle_positions)]
    return _effective_map_cached(params, tuple(particle_positions),
                                 wiring(specs, blocking)).copy()


@lru_cache(maxsize=64)
def _effective_map_cached(params: QiParams, particle_positions: tuple,
                          blocking: tuple) -> np.ndarray:
    """One batched qi_run on the basis inputs: branch c of the batch is
    basis input c, and the run acts on each branch alone, so the result's
    branch c is column c of the map, with the bits of a one-column run."""
    layout = (photon_spec("ph"),) + tuple(
        particle_spec(f"b{i}", positions=d) for i, d in enumerate(particle_positions))
    total = int(np.prod([s.dim for s in layout]))
    res = qi_run(StateVector(layout, np.eye(total), total), "ph",
                 [s.name for s in layout[1:]], list(blocking), params)
    return np.ascontiguousarray(res.amps.reshape(total, total).T)
