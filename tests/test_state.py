"""Property tests for the state container and measurement primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zenosim import state as engine_state
from zenosim.state import (
    ATOL,
    BLOCKED,
    BRANCH_CUTOFF,
    PARTICLE_COMPUTATIONAL,
    PARTICLE_PM,
    PH_ONE_V,
    PH_SINK,
    PH_ONE_H,
    PHOTON_COMPUTATIONAL,
    QUDIT_POSITION,
    StateVector,
    add_subsystem,
    apply_local,
    basis_outcomes,
    branch_all,
    draw_table,
    fidelity,
    level_weight,
    new_state,
    norm_deficit,
    norm_sq,
    particle,
    photon,
    sample_branch,
    stack_branches,
)

from helpers import (
    assert_values_with_positive_zeros,
    reference_sample_branch,
    reorder,
    signed_zero_amps,
)

BASES = [PHOTON_COMPUTATIONAL, PARTICLE_PM, QUDIT_POSITION]


def _random_layout(rng):
    specs = []
    n = rng.integers(1, 4)
    for i in range(n):
        if rng.random() < 0.5:
            specs.append(photon(f"p{i}"))
        else:
            specs.append(particle(f"b{i}", positions=int(rng.integers(2, 4))))
    return specs


def _random_state(rng, layout, norm=1.0):
    dims = tuple(s.dim for s in layout)
    amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    amps *= norm / np.linalg.norm(amps)
    return StateVector(tuple(layout), amps.astype(np.complex128))


def _haar_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_unitary_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    layout = _random_layout(rng)
    state = _random_state(rng, layout)
    target = layout[int(rng.integers(0, len(layout)))]
    u = _haar_unitary(rng, target.dim)
    out = apply_local(state, [target.name], u)
    assert abs(norm_sq(out) - norm_sq(state)) < 1e-10


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 1.0))
@settings(max_examples=40, deadline=None)
def test_contraction_never_grows_norm(seed, scale):
    rng = np.random.default_rng(seed)
    layout = _random_layout(rng)
    state = _random_state(rng, layout)
    target = layout[int(rng.integers(0, len(layout)))]
    op = scale * _haar_unitary(rng, target.dim)
    out = apply_local(state, [target.name], op)
    assert norm_sq(out) <= norm_sq(state) + ATOL


def test_axis_of_an_unknown_name_is_a_key_error():
    with pytest.raises(KeyError, match="unknown subsystem 'q'"):
        new_state([photon("p")], [0]).axis("q")


def test_new_state_checks_one_level_per_subsystem_in_range():
    with pytest.raises(ValueError, match="^layout/levels length mismatch$"):
        new_state([photon("p")], [0, 1])
    with pytest.raises(ValueError, match="^level 4 out of range for subsystem 'p'$"):
        new_state([photon("p")], [4])


def test_expansion_rejected():
    state = new_state([photon("p")], [0])
    with pytest.raises(ValueError):
        apply_local(state, ["p"], 1.5 * np.eye(4))


@given(seed=st.integers(0, 2**32 - 1), basis_index=st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_branch_weights_complete(seed, basis_index):
    rng = np.random.default_rng(seed)
    layout = _random_layout(rng)
    state = _random_state(rng, layout, norm=float(rng.uniform(0.3, 1.0)))
    basis = BASES[basis_index]
    kind = "photon" if basis == PHOTON_COMPUTATIONAL else "particle"
    names = [s.name for s in layout if s.kind == kind]
    if basis == PARTICLE_PM:
        names = [s.name for s in layout
                 if s.kind == "particle" and s.positions() == 2]
    if not names:
        return
    target = names[int(rng.integers(0, len(names)))]
    branches = branch_all(state, target, basis)
    total = sum(w for _, _, w in branches)
    assert abs(total - norm_sq(state)) < 1e-10
    for _, post, _ in branches:
        assert abs(norm_sq(post) - 1.0) < 1e-10


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_disjoint_ops_commute(seed):
    rng = np.random.default_rng(seed)
    layout = [photon("a"), particle("b", positions=3), photon("c")]
    state = _random_state(rng, layout)
    ua = _haar_unitary(rng, 4)
    ub = _haar_unitary(rng, 4)
    one = apply_local(apply_local(state, ["a"], ua), ["b"], ub)
    two = apply_local(apply_local(state, ["b"], ub), ["a"], ua)
    assert np.abs(one.amps - two.amps).max() < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_measure_reproducible_and_consistent(seed):
    rng = np.random.default_rng(seed)
    layout = _random_layout(rng)
    state = _random_state(rng, layout)
    target = layout[0]
    basis = PHOTON_COMPUTATIONAL if target.kind == "photon" else QUDIT_POSITION
    branches = branch_all(state, target.name, basis)
    out1 = branches[sample_branch(draw_table(branches), np.random.default_rng(seed))]
    out2 = branches[sample_branch(draw_table(branches), np.random.default_rng(seed))]
    assert out1[0] == out2[0]
    assert out1[2] == out2[2]
    enumerated = {o: w for o, _, w in branch_all(state, target.name, basis)}
    assert out1[0] in enumerated
    assert abs(enumerated[out1[0]] - out1[2]) < 1e-12


class _Uniforms:
    """A generator stand-in whose `random()` returns chosen values in turn."""

    def __init__(self, values):
        self.values = list(values)
        self.drawn = 0

    def random(self):
        self.drawn += 1
        return self.values[self.drawn - 1]


def _uniforms_at(total: float, sums: list[float]) -> list[float]:
    """Uniforms that put the scaled draw exactly on each running sum, where
    one exists, and one float step either side of it, plus 0 and the
    largest uniform, which puts it past the last running sum."""
    values = {0.0, math.nextafter(1.0, 0.0)}
    for s in sums:
        v = s / total
        for _ in range(4):  # a float close to s / total that lands on s
            if v * total == s:
                break
            v = math.nextafter(v, math.inf if v * total < s else 0.0)
        values |= {math.nextafter(v, 0.0), v, math.nextafter(v, 1.0)}
    return sorted(v for v in values if 0.0 <= v < 1.0)


def _draw_both(weights: list[float], values: list[float]) -> list[int]:
    """Indices the table draw picks for `values`, each checked against the
    summing loop given the same uniform, and to take exactly one uniform."""
    branches = [(i, None, w) for i, w in enumerate(weights)]
    table = draw_table(branches)
    picked = []
    for v in values:
        stub, ref = _Uniforms([v]), _Uniforms([v])
        index = sample_branch(table, stub)
        assert index == reference_sample_branch(branches, ref), (weights, v)
        assert stub.drawn == ref.drawn == 1
        picked.append(index)
    return picked


@given(weights=st.lists(st.floats(1e-15, 1.0), min_size=2, max_size=16))
@settings(max_examples=200, deadline=None)
def test_table_draw_matches_the_summing_loop(weights):
    total, sums = draw_table([(i, None, w) for i, w in enumerate(weights)])
    values = _uniforms_at(total, sums)
    for v, index in zip(values, _draw_both(weights, values)):
        if v * total >= sums[-1]:  # the last outcome takes the remainder
            assert index == len(weights) - 1


def test_table_draw_on_a_running_sum_takes_the_next_outcome():
    # quarters add exactly, so each running sum is hit exactly
    weights = [0.25, 0.25, 0.125, 0.375]
    assert draw_table([(i, None, w) for i, w in enumerate(weights)]) == (1.0, [0.25, 0.5, 0.625])
    values = [0.0, math.nextafter(0.25, 0.0), 0.25, 0.5, 0.625, math.nextafter(1.0, 0.0)]
    assert _draw_both(weights, values) == [0, 0, 1, 2, 3, 3]
    # a total below 1 scales the uniform: 0.75 * 0.5 lands on the first sum
    assert _draw_both([0.375, 0.125], [math.nextafter(0.75, 0.0), 0.75]) == [0, 1]


def test_rank_one_measurement_removes_subsystem():
    state = new_state([photon("p"), particle("b")], [PH_ONE_H, BLOCKED])
    branches = branch_all(state, "p", PHOTON_COMPUTATIONAL)
    assert len(branches) == 1
    outcome, post, w = branches[0]
    assert outcome == 1
    assert [s.name for s in post.layout] == ["b"]
    assert abs(w - 1.0) < 1e-12


def test_pooled_photon_failure_keeps_subsystem():
    layout = [photon("p")]
    amps = np.array([0, 0.6, 0.8, 0], dtype=np.complex128)
    state = StateVector(tuple(layout), amps)
    branches = branch_all(state, "p", PHOTON_COMPUTATIONAL)
    by_outcome = {o: (post, w) for o, post, w in branches}
    assert set(by_outcome) == {1, 2}
    post, w = by_outcome[2]
    assert [s.name for s in post.layout] == ["p"]
    assert abs(w - 0.64) < 1e-12
    assert level_weight(post, "p", 2) == pytest.approx(1.0)


@pytest.mark.parametrize("basis", [PHOTON_COMPUTATIONAL, PARTICLE_PM,
                                   PARTICLE_COMPUTATIONAL, QUDIT_POSITION])
def test_outcomes_are_labelled_in_order_with_the_failure_outcome_last(basis):
    # the walk reads a measurement's failure label as its bit's value count
    fitting = []
    for spec in (photon("p"), particle("b"), particle("q", positions=3),
                 particle("r", positions=5)):
        try:
            outcomes = basis_outcomes(spec, basis)
        except ValueError:  # the basis does not fit this subsystem
            continue
        fitting.append(spec)
        assert [label for label, _ in outcomes] == list(range(len(outcomes)))
        failure_levels = [PH_ONE_V, PH_SINK] if spec.kind == "photon" else [spec.dim - 1]
        failed = [factor is None or bool(np.any(factor[failure_levels]))
                  for _, factor in outcomes]
        assert failed == [False] * (len(outcomes) - 1) + [True]
    assert fitting


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_reorder_roundtrip(seed):
    rng = np.random.default_rng(seed)
    layout = [photon("a"), particle("b"), photon("c")]
    state = _random_state(rng, layout)
    order = ["c", "a", "b"]
    back = reorder(reorder(state, order), ["a", "b", "c"])
    assert np.abs(back.amps - state.amps).max() < 1e-14


def test_norm_deficit_is_missing_weight():
    rng = np.random.default_rng(5)
    layout = [photon("p"), particle("b", positions=3)]
    assert norm_deficit(_random_state(rng, layout)) == pytest.approx(0.0, abs=ATOL)
    shrunk = _random_state(rng, layout, norm=0.6)
    assert norm_deficit(shrunk) == pytest.approx(0.64)
    assert abs(norm_deficit(shrunk) - (1.0 - norm_sq(shrunk))) < 1e-12


def test_add_subsystem_and_level_weight():
    state = new_state([photon("p")], [0])
    state = add_subsystem(state, particle("b"), np.array([0.0, 1.0, 0.0]))
    assert level_weight(state, "b", 1) == pytest.approx(1.0)
    vec = np.array([0.6, 0.8, 0.0], dtype=np.complex128)
    state = add_subsystem(state, particle("q"), vec)
    assert level_weight(state, "q", 0) == pytest.approx(0.36)
    with pytest.raises(ValueError, match="normalized"):
        add_subsystem(state, particle("r"), np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="length 3"):
        add_subsystem(state, particle("r"), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="already present"):
        add_subsystem(state, particle("q"), vec)


def _stacked(rng, layout, batch):
    return stack_branches([_random_state(rng, layout, norm=0.9) for _ in range(batch)])


@pytest.mark.parametrize("kind", ["plain", "branch-view", "batched"])
def test_copy_owns_its_amplitudes_and_keeps_their_bits(kind):
    rng = np.random.default_rng(11)
    layout = [photon("p"), particle("b", positions=3)]
    state = {"plain": lambda: _random_state(rng, layout),
             "branch-view": lambda: _stacked(rng, layout, 3).branch(1),
             "batched": lambda: _stacked(rng, layout, 3)}[kind]()
    dup = state.copy()
    assert type(dup) is StateVector
    assert (dup.layout, dup.batch) == (state.layout, state.batch)
    assert dup.amps.shape == state.amps.shape
    assert dup.amps.tobytes() == state.amps.tobytes()
    assert dup.amps.dtype == np.complex128 and dup.amps.flags.c_contiguous
    assert not np.shares_memory(dup.amps, state.amps)
    op = _haar_unitary(rng, 4)
    assert (apply_local(dup, ["p"], op).amps.tobytes()
            == apply_local(state, ["p"], op).amps.tobytes())


def test_fidelity_contract():
    a = new_state([photon("p")], [0])
    b = new_state([photon("p")], [PH_ONE_H])
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == pytest.approx(0.0)
    sub = StateVector(a.layout, a.amps * 0.5)
    with pytest.raises(ValueError):
        fidelity(a, sub)
    with pytest.raises(ValueError):
        fidelity(a, new_state([photon("x")], [0]))


def test_norm_overflow_rejected():
    with pytest.raises(ValueError, match=r"^norm\^2 2\.0 exceeds 1$"):
        StateVector((photon("p"),), np.array([1.0, 1.0, 0, 0], dtype=np.complex128))
    with pytest.raises(ValueError, match="^non-finite amplitude$"):
        StateVector((photon("p"),), np.array([np.nan, 0, 0, 0], dtype=np.complex128))


# --- the state's error contract ---------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan),
                                 complex(0.1, -np.inf), complex(np.nan, 0.0)])
def test_non_finite_amplitude_is_named(bad):
    amps = np.array([0.5, bad, 0, 0, 0, 0], dtype=np.complex128)
    with pytest.raises(ValueError, match="^non-finite amplitude$"):
        StateVector((particle("b", positions=5),), amps)


def test_finite_amplitude_with_overflowing_norm_is_named():
    # every amplitude is finite, only the norm overflows
    with pytest.raises(ValueError, match=r"^norm\^2 inf exceeds 1$"):
        StateVector((photon("p"),), np.array([1e200, 0, 0, 0], dtype=np.complex128))


def test_apply_local_errors_keep_their_messages():
    state = new_state([photon("p"), particle("b")], [0, BLOCKED])
    with pytest.raises(ValueError, match=r"^operator is not a contraction \(sigma_max = 1\.5\)$"):
        apply_local(state, ["p"], 1.5 * np.eye(4))
    with pytest.raises(ValueError, match="^duplicate target$"):
        apply_local(state, ["b", "b"], np.eye(9))
    with pytest.raises(ValueError, match=r"^operator shape \(4, 4\) does not match "
                                         r"target dimension 12$"):
        apply_local(state, ["p", "b"], np.eye(4))


# --- the contraction check's memo -------------------------------------------

def _refused(state, targets, op) -> str:
    """The message `apply_local` refuses `op` with; AssertionError if it is
    accepted."""
    try:
        apply_local(state, targets, op)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"an operator of shape {op.shape} was accepted")


def assert_operator_scaled_in_place_is_refused() -> None:
    """A writeable operator accepted once and then scaled in place past a
    contraction is refused on its next call: the memo is keyed by the
    operator's bytes, not by the object."""
    state = new_state([photon("p"), particle("b")], [PH_ONE_H, BLOCKED])
    op = np.eye(4, dtype=np.complex128)
    apply_local(state, ["p"], op)
    op *= 1.5
    message = _refused(state, ["p"], op)
    assert message == "operator is not a contraction (sigma_max = 1.5)", message


def assert_memo_tells_shapes_apart() -> None:
    """Nine 3x3 identities, stacked on a batch of nine, are a contraction;
    the same 1,296 bytes read as one 9x9 operator on two particles (nine
    equal rows) are not, although the stack was accepted first."""
    stack = np.tile(np.eye(3, dtype=np.complex128), (9, 1, 1))
    square = stack.reshape(9, 9)
    assert square.tobytes() == stack.tobytes()
    apply_local(stack_branches([new_state([particle("b")], [BLOCKED])] * 9), ["b"], stack)
    pair = new_state([particle("b"), particle("c")], [BLOCKED, BLOCKED])
    message = _refused(pair, ["b", "c"], square)
    assert message.startswith("operator is not a contraction (sigma_max = 5.19"), message


def test_operator_scaled_in_place_is_refused():
    assert_operator_scaled_in_place_is_refused()


def test_memo_tells_shapes_apart():
    assert_memo_tells_shapes_apart()


@given(seed=st.integers(0, 2**32 - 1), batch=st.sampled_from([None, 3]),
       order=st.sampled_from(["C", "F"]))
@settings(max_examples=40, deadline=None)
def test_memo_gives_the_float_of_the_operators_own_svd(seed, batch, order):
    # a Fortran-ordered operator is keyed by its C-ordered bytes
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 10))
    shape = (d, d) if batch is None else (batch, d, d)
    op = np.asarray(rng.normal(size=shape) + 1j * rng.normal(size=shape), order=order)
    sigma = np.linalg.svd(op, compute_uv=False)
    want = float(sigma[0] if batch is None else sigma[:, 0].max())
    assert engine_state._sigma_max_of(op.shape, op.tobytes()) == want


def test_an_svd_that_raises_raises_on_every_call(monkeypatch):
    # an SVD that does not converge on a finite operator, stood in for by
    # one that always raises
    def unconverged(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", unconverged)
    state = new_state([photon("p")], [PH_ONE_H])
    op = 0.375 * np.eye(4, dtype=np.complex128)
    before = engine_state._sigma_max_of.cache_info()
    for _ in range(2):
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            apply_local(state, ["p"], op)
    after = engine_state._sigma_max_of.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)


@pytest.mark.parametrize("entry", [np.inf, np.nan])
def test_a_non_finite_operator_is_refused_as_no_contraction(entry):
    # an infinity gives an all-NaN SVD and a NaN one that does not
    # converge; each is refused by the contraction check, from the memo
    # (twice, the second a hit) and from a stack too large to be kept
    one = new_state([photon("p")], [PH_ONE_H])
    op = np.eye(4, dtype=np.complex128)
    op[0, 0] = entry
    stack = np.tile(op, (17, 1, 1))
    assert stack.nbytes > engine_state._MEMO_OP_BYTES
    for state, bad in ((one, op), (one, op), (stack_branches([one] * 17), stack)):
        assert _refused(state, ["p"], bad) == "operator is not a contraction (sigma_max = nan)"


# --- local steps against numpy's axis helpers ---------------------------------

_WIDE = [particle("x", positions=3), photon("p"), particle("b"), photon("q"),
         particle("c", positions=4)]


def _apply_local_reference(state, targets, op):
    """apply_local as `np.moveaxis` of the targets to the front, one 2-D
    product and `np.moveaxis` back."""
    axes = [state.axis(t) for t in targets]
    moved = np.moveaxis(state.amps, axes, range(len(axes)))
    block = int(np.prod(moved.shape[:len(axes)]))
    out = (np.asarray(op, dtype=np.complex128) @ moved.reshape(block, -1)).reshape(moved.shape)
    return np.ascontiguousarray(np.moveaxis(out, range(len(axes)), axes))


@pytest.mark.parametrize("targets", [["p"], ["x"], ["c"], ["p", "c"], ["c", "p"],
                                     ["b", "x"], ["q", "x", "c"], ["c", "b", "p"]])
def test_apply_local_is_bit_identical_to_moveaxis(targets):
    rng = np.random.default_rng(len(targets) * 100 + sum(map(ord, "".join(targets))))
    state = _random_state(rng, _WIDE)
    d = int(np.prod([state.spec(t).dim for t in targets]))
    for scale in (1.0, 0.6):
        op = scale * _haar_unitary(rng, d)
        got = apply_local(state, targets, op)
        assert got.amps.tobytes() == _apply_local_reference(state, targets, op).tobytes()


def _branch_all_reference(state, target, basis):
    """branch_all with rank-1 outcomes projected by `np.tensordot`."""
    axis = state.axis(target)
    out = []
    for outcome, factor in basis_outcomes(state.layout[axis], basis):
        if factor is not None:
            amp = np.tensordot(factor.conj(), state.amps, axes=(0, axis))
        else:
            keep = np.zeros(state.layout[axis].dim)
            keep[[PH_ONE_V, PH_SINK]] = 1.0
            shape = [1] * state.amps.ndim
            shape[axis] = state.layout[axis].dim
            amp = state.amps * keep.reshape(shape)
        w = float(np.vdot(amp, amp).real)
        if w > BRANCH_CUTOFF:
            out.append((outcome, amp / np.sqrt(w), w))
    return out


@pytest.mark.parametrize("target, basis", [
    ("p", PHOTON_COMPUTATIONAL), ("q", PHOTON_COMPUTATIONAL), ("b", PARTICLE_PM),
    ("b", PARTICLE_COMPUTATIONAL), ("x", PARTICLE_COMPUTATIONAL),
    ("x", QUDIT_POSITION), ("c", QUDIT_POSITION)])
def test_branch_all_is_bit_identical_to_tensordot(target, basis):
    rng = np.random.default_rng(sum(map(ord, target + basis)))
    spec = next(s for s in _WIDE if s.name == target)
    rotated = _WIDE[3:] + _WIDE[:3]  # moves every target, and puts b last
    levels = [1 if s.kind == "photon" else 0 for s in _WIDE]
    states = [_random_state(rng, _WIDE, norm=0.7), _random_state(rng, rotated),
              _random_state(rng, [spec]),  # the measured subsystem alone
              new_state(_WIDE, levels)]  # outcomes below the cutoff drop
    for state in states:
        got = branch_all(state, target, basis)
        want = _branch_all_reference(state, target, basis)
        assert [(o, w) for o, _, w in got] == [(o, w) for o, _, w in want]
        for (_, post, _), (_, amp, _) in zip(got, want):
            assert post.amps.tobytes() == amp.tobytes()


@pytest.mark.parametrize("target, basis", [
    ("p", PHOTON_COMPUTATIONAL), ("q", PHOTON_COMPUTATIONAL), ("b", PARTICLE_COMPUTATIONAL),
    ("x", PARTICLE_COMPUTATIONAL), ("x", QUDIT_POSITION), ("c", QUDIT_POSITION)])
def test_unit_projections_have_the_values_of_the_literal_product(target, basis):
    # a unit outcome is read as one row of the (d, rest) columns; its
    # reference is the (1, d) @ (d, rest) product with the unit vector, on
    # plain states and a stack whose entries hold +0.0 and -0.0
    rng = np.random.default_rng(sum(map(ord, target + basis)) + 1)
    axis = next(i for i, s in enumerate(_WIDE) if s.name == target)
    spec = _WIDE[axis]
    outcomes = basis_outcomes(spec, basis)
    for label, factor in outcomes:  # the rule `branch_all` reads
        if factor is not None:
            assert factor.tobytes() == np.eye(spec.dim, dtype=np.complex128)[label].tobytes()
    shape = tuple(s.dim for s in _WIDE)
    plain = [StateVector(tuple(_WIDE), signed_zero_amps(rng, shape)) for _ in range(3)]
    stacked = stack_branches(plain)
    by_branch = branch_all(stacked, target, basis)
    for b, state in enumerate(plain):
        columns = np.moveaxis(state.amps, axis, 0).reshape(spec.dim, -1)
        want = []
        for label, factor in outcomes:
            if factor is not None:
                amp = (factor.conj().reshape(1, -1) @ columns).reshape(-1)
                w = float(np.vdot(amp, amp).real)
                want.append((label, amp / np.sqrt(w), w))
        for got in (branch_all(state, target, basis), by_branch[b]):
            rank_one = [(o, post, w) for o, post, w in got if len(post.layout) < len(_WIDE)]
            assert [(o, w) for o, _, w in rank_one] == [(o, w) for o, _, w in want]
            for (_, post, _), (_, amp, _) in zip(rank_one, want):
                assert_values_with_positive_zeros(post.amps.reshape(-1), amp)
