"""Cross-checks between the engine and the flat-vector reference runner."""

import ast
import itertools
from math import prod
from pathlib import Path

import numpy as np
import pytest

from zenosim import oracle
from zenosim.circuits import (
    Instruction,
    CircuitProgram,
    bell_generator,
    demo_programs,
)
from zenosim.interrogation import QiParams
from zenosim.oracle import (
    CCNOT_MATRIX,
    CNOT_MATRIX,
    CZ_MATRIX,
    bell_vector,
    brute_force_run,
    compare,
    w_vector,
    _OracleState,
)
from zenosim.state import photon, particle

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
        deviation = compare(program, IDEAL)
        assert deviation < 1e-10, name


def test_compare_all_demos_small_cycle_count():
    params = QiParams(cycles=40)
    for name, program in demo_programs().items():
        deviation = compare(program, params)
        assert deviation < 1e-10, name


def test_compare_with_losses_and_weak_absorber():
    params = QiParams(cycles=25, absorb_prob=0.6, cycle_loss=1e-3)
    deviation = compare(bell_generator(), params)
    assert deviation < 1e-10


def test_ambiguous_branch_key_rejected():
    # both measurements write the same bit, so distinct outcome paths
    # collapse onto identical assignment records
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
    with pytest.raises(ValueError):
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
    assert compare(program, IDEAL) < 1e-12


@pytest.mark.parametrize("front", [["c", "a"], ["b"], ["a", "b", "c"]])
def test_apply_matches_literal_reference(front):
    rng = np.random.default_rng(2024)
    dims = {"a": 4, "b": 3, "c": 4}
    state = _OracleState()
    for name, d in dims.items():
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        state.add(name, "particle", d, v / np.linalg.norm(v))
    before = state.vec.copy()
    front_dim = prod(dims[n] for n in front)
    z = rng.normal(size=(front_dim, front_dim)) + 1j * rng.normal(size=(front_dim, front_dim))
    op = np.linalg.qr(z)[0]
    state.apply(front, op)

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
    assert np.abs(state.vec - reference @ before).max() <= 1e-15


def test_apply_rejects_an_operator_of_the_wrong_size():
    state = _OracleState()
    state.add("a", "particle", 4, np.eye(4)[0])
    state.add("b", "particle", 3, np.eye(3)[0])
    with pytest.raises(ValueError, match=r"\['a', 'b'\]"):
        state.apply(["a", "b"], np.eye(4, dtype=np.complex128))


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
        "interrogation": {"QiParams", "effective_map"},
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
    plain = compare(_multi_blocking_program([1, 0]), params)
    numpy_ints = compare(_multi_blocking_program([np.int64(1), 0]), params)
    assert numpy_ints == plain
    assert plain <= 1e-10
