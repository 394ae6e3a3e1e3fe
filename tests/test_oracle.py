"""Cross-checks between the engine and the flat-vector reference runner."""

import ast
import inspect
import itertools
import tracemalloc
from functools import partial
from math import prod
from pathlib import Path

import numpy as np
import pytest

from zenosim import gates, oracle, state as engine_state
from hypothesis import given, settings

from zenosim.circuits import (
    CNOT_FAMILIES,
    DEMOS,
    Instruction,
    CircuitProgram,
    bell_generator,
    cnot_circuit,
    demo_programs,
)
from zenosim.interrogation import KEEP, ROUTE_TO_SINK, QiParams
from zenosim.oracle import (
    DIMENSION_CAP,
    brute_force_run,
    compare,
    _apply,
    _extend,
    _gate,
    _leaf,
)
from zenosim.state import photon, particle

from helpers import (
    CCNOT_MATRIX,
    CNOT_MATRIX,
    CZ_MATRIX,
    FAILURE_LEAVES,
    bell_vector,
    rounding_bounds,
    w_vector,
)
from test_properties import valid_programs
from test_reference_walk import oracle_deviation

IDEAL = QiParams(cycles=None)


def test_reference_matrices_are_involutions():
    assert np.allclose(CZ_MATRIX @ CZ_MATRIX, np.eye(4))
    assert np.allclose(CNOT_MATRIX @ CNOT_MATRIX, np.eye(4))
    assert np.allclose(CCNOT_MATRIX @ CCNOT_MATRIX, np.eye(8))
    assert np.allclose(CNOT_MATRIX.conj().T @ CNOT_MATRIX, np.eye(4))


def test_bell_vectors_orthonormal():
    kinds = ("phi+", "phi-", "psi+", "psi-")
    for i, a in enumerate(kinds):
        for j, b in enumerate(kinds):
            expected = 1.0 if i == j else 0.0
            assert np.vdot(bell_vector(a), bell_vector(b)) == pytest.approx(expected)


def test_w_vector_two_qubits_is_psi_plus():
    assert np.allclose(w_vector(2), bell_vector("psi+"))


def test_w_vector_weights():
    v = w_vector(3)
    assert np.vdot(v, v) == pytest.approx(1.0)
    assert sorted(np.flatnonzero(np.abs(v) > 0)) == [1, 2, 4]


def test_brute_force_bell_leaves():
    tree = brute_force_run(bell_generator(), IDEAL)
    assert len(tree.leaves) == 2
    for leaf in tree.leaves:
        assert leaf.layout == ("p1", "p2")
        assert not leaf.failed
        assert set(leaf.assignments) == {"m"}
        w = float(np.vdot(leaf.vector, leaf.vector).real)
        assert w == pytest.approx(0.5, abs=1e-12)


def test_brute_force_bell_states():
    tree = brute_force_run(bell_generator(), IDEAL)
    by_bit = {leaf.assignments["m"]: leaf for leaf in tree.leaves}
    # photon levels 0..3; embed the 2x2 logical Bell vector
    phi = np.zeros((4, 4), dtype=np.complex128)
    phi[:2, :2] = bell_vector("phi+").reshape(2, 2)
    psi = np.zeros((4, 4), dtype=np.complex128)
    psi[:2, :2] = bell_vector("psi+").reshape(2, 2)
    v0 = by_bit[0].vector / np.linalg.norm(by_bit[0].vector)
    v1 = by_bit[1].vector / np.linalg.norm(by_bit[1].vector)
    assert abs(np.vdot(v0.ravel(), phi.ravel())) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(v1.ravel(), psi.ravel())) == pytest.approx(1.0, abs=1e-12)


def test_compare_all_demos_ideal():
    for name, program in demo_programs().items():
        assert compare(program, IDEAL) <= rounding_bounds(program).compare, name


def test_compare_all_demos_small_cycle_count():
    params = QiParams(cycles=40)
    for name, program in demo_programs().items():
        assert compare(program, params) <= rounding_bounds(program).compare, name


def test_compare_with_losses_and_weak_absorber():
    params = QiParams(cycles=25, absorb_prob=0.6, cycle_loss=1e-3)
    program = bell_generator()
    assert compare(program, params) <= rounding_bounds(program).compare


def test_a_bit_written_twice_pairs_by_position():
    # both measurements write the same bit, so distinct outcome paths end in
    # identical classical records; the runners pair their branches by
    # position, not by record
    program = CircuitProgram(
        subsystems=(particle("a"), particle("b")),
        bits=("m",),
        instructions=(
            Instruction("prepare", {"target": "a", "level": 0}),
            Instruction("particle_h", {"target": "a"}),
            Instruction("prepare", {"target": "b", "level": 0}),
            Instruction("particle_h", {"target": "b"}),
            Instruction("measure", {"target": "a",
                                    "basis": "particle_computational", "bit": "m"}),
            Instruction("measure", {"target": "b",
                                    "basis": "particle_computational", "bit": "m"}),
        ),
    )
    for params in (IDEAL, QiParams(cycles=333, absorb_prob=0.9)):
        assert [leaf.assignments for leaf in brute_force_run(program, params).leaves] == [
            {"m": 0}, {"m": 1}, {"m": 0}, {"m": 1}]
        assert compare(program, params) <= rounding_bounds(program).compare


# edits of the engine's branch list, each with the error compare raises
_UNPAIRED = {
    "order": (lambda leaves: leaves[::-1], r"^branch 0: engine \(record, failed, layout\)"),
    "fewer": (lambda leaves: leaves[:-1],
              r"^branch 3: the engine has 3 branches, the brute-force run 4$"),
    "more": (lambda leaves: leaves + leaves[:1], r"^branch 4: the engine has 5 branches"),
}


@pytest.mark.parametrize("name", sorted(_UNPAIRED))
def test_compare_names_the_branch_that_does_not_pair(monkeypatch, name):
    # the coin flips of the teleportation memory end in four leaves with
    # distinct records
    edit, message = _UNPAIRED[name]
    walk = oracle.run_all_branches
    monkeypatch.setattr(oracle, "run_all_branches", lambda *args: edit(walk(*args)))
    program = DEMOS["memory"]()
    assert len(brute_force_run(program, IDEAL).leaves) == 4
    with pytest.raises(ValueError, match=message):
        compare(program, IDEAL)


def test_brute_force_failure_leaf():
    # photon prepared on |1V> always hits the pooled failure outcome
    program = CircuitProgram(
        subsystems=(photon("p"),),
        bits=("m",),
        instructions=(
            Instruction("prepare", {"target": "p", "state": [[0, 0], [0, 0], [1, 0]]}),
            Instruction("measure", {"target": "p",
                                    "basis": "photon_computational", "bit": "m"}),
        ),
    )
    tree = brute_force_run(program, IDEAL)
    failed = [leaf for leaf in tree.leaves if leaf.failed]
    assert len(failed) == 1
    assert failed[0].assignments["m"] == 2
    assert compare(program, IDEAL) <= rounding_bounds(program).compare


def test_pooled_failure_weighs_both_failure_levels():
    # half the photon's weight on its sink level: the pooled failure outcome
    # weighs |1V> and the sink together, and keeps the photon live
    h = 2 ** -0.5
    program = CircuitProgram(
        subsystems=(photon("p"),),
        bits=("m",),
        instructions=(
            Instruction("prepare", {"target": "p", "state": [[h, 0], [0, 0], [0, 0], [h, 0]]}),
            Instruction("measure", {"target": "p",
                                    "basis": "photon_computational", "bit": "m"}),
        ),
    )
    leaves = brute_force_run(program, IDEAL).leaves
    assert [(leaf.assignments, leaf.failed, leaf.layout) for leaf in leaves] == [
        ({"m": 0}, False, ()), ({"m": 2}, True, ("p",))]
    assert leaves[1].vector.tolist() == [0, 0, 0, h]
    # the kept leaf has no live subsystem: a 0-d array, as the engine's state
    assert type(leaves[0].vector) is np.ndarray and leaves[0].vector.shape == ()
    assert compare(program, IDEAL) <= rounding_bounds(program).compare


_SMALL = {"a": 4, "b": 3, "c": 4}
# four photons and a 4-position particle: 4^4 * 5 == DIMENSION_CAP levels
_AT_CAP = {"p": 4, "q": 4, "r": 4, "s": 4, "b": 5}


def _random_vector(rng, dims):
    """A product of random unit vectors, one per subsystem in `dims` order,
    grown the way the oracle grows a branch at each prepare."""
    vec = np.ones(1, dtype=np.complex128)
    for d in dims.values():
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        vec = _extend(vec, v / np.linalg.norm(v))
    return vec


def _gate_applied(vec, dims, front, op):
    """The oracle's gate on `vec` in the `dims` order, which the product
    leaves front-first, reordered back into the `dims` order as a leaf is."""
    gate = _gate(tuple(dims), tuple(dims.values()), front, op)
    return _apply(vec, gate.index, op)[_leaf(gate.order, gate.shape, tuple(dims)).index].reshape(-1)


def _kron_reference(before, dims, front, op):
    """P^T (op kron I_rest) P before, with the front axes moved by
    `np.moveaxis` and kron(op, I_rest) written out as a dense matrix."""
    names = list(dims)
    moved = [names.index(n) for n in front]
    y = np.moveaxis(before.reshape(tuple(dims.values())), moved,
                    range(len(front)))
    rest_dim = before.size // op.shape[0]
    z = (np.kron(op, np.eye(rest_dim)) @ y.reshape(-1)).reshape(y.shape)
    return np.moveaxis(z, range(len(front)), moved).reshape(-1)


@pytest.mark.parametrize("dims, front", [
    pytest.param(_SMALL, ["c", "a"], id="front0"),
    pytest.param(_SMALL, ["b"], id="front1"),
    pytest.param(_SMALL, ["a", "b", "c"], id="front2"),
    pytest.param(_AT_CAP, ["r", "p"], id="at-cap"),
])
def test_apply_matches_literal_reference(dims, front):
    rng = np.random.default_rng(2024)
    before = _random_vector(rng, dims)
    front_dim = prod(dims[n] for n in front)
    z = rng.normal(size=(front_dim, front_dim)) + 1j * rng.normal(size=(front_dim, front_dim))
    op = np.linalg.qr(z)[0]
    after = _gate_applied(before, dims, front, op)
    if before.size == DIMENSION_CAP:
        assert np.abs(after - _kron_reference(before, dims, front, op)).max() <= 1e-15
        return

    # P^T (op kron I) P, entry by entry: live digit tuples i and j couple
    # through op[front digits of i, front digits of j] when their other
    # digits agree
    names = list(dims)
    rest = [n for n in names if n not in front]

    def index(digits, group):
        k = 0
        for n in group:
            k = k * dims[n] + digits[names.index(n)]
        return k

    tuples = list(itertools.product(*(range(dims[n]) for n in names)))
    reference = np.zeros((len(tuples), len(tuples)), dtype=np.complex128)
    for i, ti in enumerate(tuples):
        for j, tj in enumerate(tuples):
            if index(ti, rest) == index(tj, rest):
                reference[i, j] = op[index(ti, front), index(tj, front)]
    assert np.abs(after - reference @ before).max() <= 1e-15


def test_apply_at_the_cap_allocates_no_full_space_matrix():
    # a dense kron(op, I_rest) at 1280 levels would be 1280^2 complex128
    # entries, about 26 MB; the peak covers building the gate's plan too
    vec = _random_vector(np.random.default_rng(7), _AT_CAP)
    assert vec.size == DIMENSION_CAP
    tracemalloc.start()
    try:
        _gate_applied(vec, _AT_CAP, ["r"], gates._PHOTON_H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 ** 2


def _mutated_apply_local(snippet, replacement):
    """`state.apply_local` with one source snippet replaced, compiled in the
    state module's globals."""
    source = inspect.getsource(engine_state.apply_local)
    assert source.count(snippet) == 1
    namespace: dict = {}
    exec(compile(source.replace(snippet, replacement), "<mutant>", "exec"),
         vars(engine_state), namespace)
    return namespace["apply_local"]


# Mistakes in the engine's gate step that the oracle must see: undoing the
# axis move with the forward permutation (wrong only where a gate reaches
# past the first two axes, as in the Toffoli demo), and applying the adjoint
# (wrong only for the 3-position Fourier transform of the W-state demos at
# finite depth).  A plain transpose is not among them: every operator the
# engine hands to apply_local (H, the position Fourier transform, the
# diagonal phase) is symmetric, so it changes no program.  The adjoint is
# taken with `.mT`, each matrix's own transpose, since the W-state phases
# reach apply_local as a stack of one operator per branch, whose `.T` would
# also reverse the branch axis.
@pytest.mark.parametrize("snippet, replacement, demo", [
    pytest.param("out.transpose(sorted(range(len(perm)), key=perm.__getitem__))",
                 "out.transpose(perm)", "toffoli", id="forward-permutation"),
    pytest.param("(op @ front", "(op.conj().mT @ front", "wstate-3", id="adjoint"),
])
def test_oracle_catches_engine_layout_mutants(monkeypatch, snippet, replacement, demo):
    program = demo_programs()[demo]
    params = QiParams(cycles=7)
    assert compare(program, params) <= rounding_bounds(program).compare
    mutant = _mutated_apply_local(snippet, replacement)
    for module in (engine_state, gates):  # gates holds its own binding
        monkeypatch.setattr(module, "apply_local", mutant)
    assert compare(program, params) > 1e-10


def _interrogation_shapes() -> set:
    """(particle dims, blocking sets) of every demo's interrogations."""
    shapes = set()
    for program in DEMOS.values():
        program = program()
        for instr in program.instructions:
            a = instr.args
            if instr.op == "qicz":
                names, blocking = [a["particle"]], None
            elif instr.op == "qicz_multi":
                names, blocking = a["particles"], a.get("blocking")
            else:
                continue
            shapes.add((tuple(program.spec(n).dim for n in names),
                        oracle._normalized_blocking(blocking, len(names))))
    return shapes


def _limit_diag_by_entry(p_dims, blocking, keep_residual_v):
    """The exact limit's rule, one basis entry at a time in C order: 0 on the
    photon sink, on an exploded particle and on |1V> unless it is kept with
    every particle clear of its blocking set; else -1 on |1H> and |1V> with
    every particle clear, +1 otherwise."""
    diag = []
    for ph, *levels in itertools.product(range(4), *(range(d) for d in p_dims)):
        exploded = any(lv == d - 1 for lv, d in zip(levels, p_dims))
        clear = all(lv not in blocked for lv, blocked in zip(levels, blocking))
        if ph == 3 or exploded or (ph == 2 and not (keep_residual_v and clear)):
            diag.append(0.0)
        elif ph in (1, 2) and clear:
            diag.append(-1.0)
        else:
            diag.append(1.0)
    return np.diag(np.array(diag, dtype=np.complex128))


@pytest.mark.parametrize("keep_residual_v", [False, True], ids=["route", "keep"])
def test_limit_diagonal_follows_the_per_entry_rule(keep_residual_v):
    # the Toffoli's two 2-position particles, the W states' 3- and
    # 4-position particles blocked at several position sets, and the rest
    shapes = _interrogation_shapes()
    assert {dims for dims, _ in shapes} >= {(3,), (3, 3), (4,), (5,)}
    for p_dims, blocking in sorted(shapes, key=repr):
        got = oracle._ideal_interrogation_diag(p_dims, blocking, keep_residual_v)
        want = _limit_diag_by_entry(p_dims, blocking, keep_residual_v)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (p_dims, blocking)


def test_apply_rejects_an_operator_of_the_wrong_size():
    with pytest.raises(ValueError, match=r"\['a', 'b'\]"):
        _gate(("a", "b"), (4, 3), ["a", "b"], np.eye(4, dtype=np.complex128))


def test_oracle_imports_only_its_pinned_engine_names():
    # the oracle is useful only while it shares no machinery with the
    # engine; these are the engine names it may read (no gates, no analysis)
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("zenosim"):
                continue
            module = (node.module or "").removeprefix("zenosim").lstrip(".")
            for alias in node.names:
                if module:
                    imported.setdefault(module, set()).add(alias.name)
                else:  # from . import module
                    imported.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("zenosim"):
                    module = alias.name.removeprefix("zenosim").lstrip(".")
                    imported.setdefault(module or "zenosim", set()).add("*")
    assert imported == {
        "circuits": {"CircuitProgram", "run_all_branches"},
        "interrogation": {"KEEP", "QiParams", "effective_map"},
        "state": {"PARTICLE_PM", "PHOTON_COMPUTATIONAL"},
    }


def _multi_blocking_program(blocking):
    h = 2 ** -0.5
    return CircuitProgram(
        subsystems=(particle("a"), particle("b"), photon("t")),
        bits=(),
        instructions=(
            Instruction("prepare", {"target": "a", "state": [[h, 0], [h, 0], [0, 0]]}),
            Instruction("prepare", {"target": "b", "state": [[0.6, 0], [0, 0.8], [0, 0]]}),
            Instruction("prepare", {"target": "t", "level": 0}),
            Instruction("photon_h", {"target": "t"}),
            Instruction("qicz_multi", {"photon": "t", "particles": ["a", "b"],
                                       "blocking": blocking}),
            Instruction("photon_h", {"target": "t"}),
        ),
    )


@pytest.mark.parametrize("params", [IDEAL, QiParams(cycles=7)],
                         ids=["ideal", "n7"])
def test_compare_takes_numpy_integer_blocking_entries(params):
    program = _multi_blocking_program([1, 0])
    plain = compare(program, params)
    numpy_ints = compare(_multi_blocking_program([np.int64(1), 0]), params)
    assert numpy_ints == plain
    assert plain <= rounding_bounds(program).compare


@pytest.mark.parametrize("sizes", [(48, 3), (256, 5), (7, 1), (1, 4)])
def test_add_has_the_bits_of_np_kron(sizes):
    rng = np.random.default_rng(sum(sizes))
    a, b = (rng.normal(size=n) + 1j * rng.normal(size=n) for n in sizes)
    # signed zeros in both parts, so a product sign that differs shows up
    zeros = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    a[::4] = np.resize(zeros, a[::4].size)
    b[-1] = complex(-0.0, -0.0)
    got = _extend(a, b)
    want = np.kron(a, b)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the oracle against the 50-digit walk: every leaf pairs with the walk's
# (layout, record, failure flag), and no part of an unnormalized oracle
# amplitude lies further than `rounding_bounds(program).amplitude` from the
# walk's amplitude times the square root of its branch weight

_PROGRAMS = {**DEMOS, **{f"family-{f}": partial(cnot_circuit, f) for f in CNOT_FAMILIES}}
_DEPTHS = {
    "ideal": {"cycles": None},
    "n3": {"cycles": 3},
    "n333-lossy": {"cycles": 333, "absorb_prob": 0.9, "cycle_loss": 1e-3},
    "n10000": {"cycles": 10_000},
}


@pytest.mark.parametrize("policy", [ROUTE_TO_SINK, KEEP])
@pytest.mark.parametrize("depth", list(_DEPTHS))
@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_leaves_match_the_50_digit_walk(name, depth, policy):
    program = _PROGRAMS[name]()
    params = QiParams(**_DEPTHS[depth], residual_v_policy=policy)
    assert oracle_deviation(program, params) <= rounding_bounds(program).amplitude


@settings(max_examples=60, deadline=None)
@given(program=valid_programs())
def test_generated_leaves_match_the_50_digit_walk(program):
    for params in (IDEAL, QiParams(cycles=3, absorb_prob=0.8, cycle_loss=1e-3)):
        assert oracle_deviation(program, params) <= rounding_bounds(program).amplitude


@pytest.mark.parametrize("name, shapes", [("cnot-memory", 1), ("wstate-3", 3)])
def test_each_interrogation_fetches_its_map_once_per_walk(monkeypatch, name, shapes):
    # one fetch per map shape (particle dims and blocking sets): the memory
    # CNOT reaches its five interrogations on 1, 2, 2, 4 and 8 branches, all
    # on one 2-position particle blocked at 0; the W state's three block one
    # particle at three different position sets
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return effective_map(*args, **kwargs)

    effective_map = oracle.effective_map
    monkeypatch.setattr(oracle, "effective_map", counted)
    program = DEMOS[name]()
    params = QiParams(cycles=7)
    leaves = len(brute_force_run(program, params).leaves)
    assert leaves > 1 and len(calls) == shapes
    brute_force_run(program, params)  # the maps die with the call
    assert len(calls) == 2 * shapes


def _unreached_tail(photons: int) -> CircuitProgram:
    """A photon prepared in |1V>, so that only the failure outcome of its
    measurement survives, then an interrogation and `photons` more photons,
    none of which any branch reaches."""
    subsystems = (photon("p"), photon("q"), particle("b"),
                  *(photon(f"r{k}") for k in range(photons)))
    return CircuitProgram(subsystems, ("m",), (
        Instruction("prepare", {"target": "p", "level": 2}),
        Instruction("measure", {"target": "p", "basis": "photon_computational", "bit": "m"}),
        Instruction("prepare", {"target": "b", "pm": "+"}),
        Instruction("prepare", {"target": "q", "level": 1}),
        Instruction("qicz", {"photon": "q", "particle": "b"}),
        *(Instruction("prepare", {"target": f"r{k}", "level": 0}) for k in range(photons)),
    ))


def test_instructions_no_branch_reaches_are_planned(monkeypatch):
    # the walk ends in one failure leaf at the measurement, but the pass
    # before it fetches the interrogation's map and, with a fourth extra
    # photon (3 * 4^5 levels), refuses the state past the cap
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return effective_map(*args, **kwargs)

    effective_map = oracle.effective_map
    monkeypatch.setattr(oracle, "effective_map", counted)
    params = QiParams(cycles=7)
    leaves = brute_force_run(_unreached_tail(3), params).leaves
    assert [(leaf.failed, leaf.layout) for leaf in leaves] == [(True, ("p",))]
    assert len(calls) == 1
    with pytest.raises(ValueError, match=r"^instructions\[8\]: preparing 'r3' would "
                                         r"exceed the 1280-dimensional cap$"):
        brute_force_run(_unreached_tail(4), params)
    assert len(calls) == 2


def test_each_instruction_is_planned_once_per_walk(monkeypatch):
    # the memory CNOT walks 18 branches under FAILURE_LEAVES
    calls = []

    def counted(instr, *args):
        calls.append(instr)
        return plan(instr, *args)

    plan = oracle._plan
    monkeypatch.setattr(oracle, "_plan", counted)
    program = DEMOS["cnot-memory"]()
    leaves = brute_force_run(program, FAILURE_LEAVES).leaves
    assert len(leaves) > 1 and calls == list(program.instructions)
    brute_force_run(program, FAILURE_LEAVES)  # the plans die with the call
    assert calls == 2 * list(program.instructions)
