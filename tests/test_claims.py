"""Each gate demo against the textbook gate it claims.

The oracle walks the same program as the engine, so a circuit that is
wrong is wrong in both, and the basis-input checks cannot see a phase.
Here every CNOT family, the Toffoli and the interrogation CZ run on basis
and superposed inputs, and every branch that does not fail must hold the
literal gate (`helpers.CNOT_MATRIX`, `CCNOT_MATRIX`, `CZ_MATRIX`, written
out, not built by the engine) applied to the input, up to one global phase
per branch.  At the exact limit the infidelity is rounding only; at
N = 10^4 each bound is twice the worst infidelity measured there, as
`test_reference_powers.py` sets its bounds.  The module's tests take
about 0.15 s."""

import numpy as np
import pytest

from zenosim.circuits import (
    CNOT_FAMILIES,
    DEMOS,
    RunResult,
    cnot_circuit,
    cnot_output_names,
    configurable_gate,
    run_all_branches,
    toffoli,
)
from zenosim.interrogation import QiParams
from zenosim.state import norm_sq

from helpers import CCNOT_MATRIX, CNOT_MATRIX, CZ_MATRIX, cnot_inputs, reorder

IDEAL = QiParams(cycles=None)
DEEP = QiParams(cycles=10_000)
EXACT_BOUND = 1e-12

# twice the worst infidelity over each gate's inputs at N = 10^4, rounded
# up; measured on x86-64 with numpy 2: memory 7.91e-7, keep-control
# 5.48e-7, keep-target 1.48e-7, both direct families 6.09e-8, Toffoli
# 6.09e-8, CZ 5.80e-8
DEEP_BOUNDS = {
    "memory": 1.6e-6,
    "half-memory-keep-control": 1.1e-6,
    "half-memory-keep-target": 3.0e-7,
    "direct-cx": 1.3e-7,
    "direct-cz": 1.3e-7,
    "toffoli": 1.3e-7,
    "qicz": 1.2e-7,
}

_BASIS = [(1, 0), (0, 1)]


def _bound(gate: str, params: QiParams) -> float:
    return EXACT_BOUND if params.cycles is None else DEEP_BOUNDS[gate]


def _qubits(count: int, per_input: int) -> list[tuple]:
    rng = np.random.default_rng(17)
    inputs = []
    for _ in range(count):
        vs = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(per_input)]
        inputs.append(tuple(tuple(v / np.linalg.norm(v)) for v in vs))
    return inputs


def _infidelity(result: RunResult, names: list[str], want: np.ndarray) -> float:
    """1 - |<want|out>|^2 / <out|out>, where `out` is the branch's state over
    `names` and only its logical levels (a photon's |0>, |1H>; a particle's
    positions 0 and 1) enter the overlap, so weight elsewhere counts
    against it."""
    state = reorder(result.final_state, names)
    logical = state.amps[(slice(0, 2),) * len(names)].reshape(-1)
    return 1.0 - abs(np.vdot(want, logical)) ** 2 / norm_sq(state)


def _worst(program, names: list[str], want: np.ndarray, params: QiParams) -> float:
    results = run_all_branches(program, params)
    kept = [r for r in results if not r.failed]
    assert kept
    if params.cycles is None:
        assert sum(r.success_probability for r in results) == pytest.approx(1.0, abs=1e-12)
    return max(abs(_infidelity(r, names, want)) for r in kept)


def _cnot_worst(family: str, params: QiParams) -> float:
    names = list(cnot_output_names(family))
    return max(_worst(cnot_circuit(family, control=c, target=t), names,
                      CNOT_MATRIX @ np.kron(c, t), params)
               for c, t in cnot_inputs())


def _toffoli_worst(params: QiParams) -> float:
    inputs = [(a, b, c) for a in _BASIS for b in _BASIS for c in _BASIS]
    return max(_worst(toffoli((*c1, 0), (*c2, 0), t), ["c1", "c2", "t"],
                      CCNOT_MATRIX @ np.kron(np.kron(c1, c2), t), params)
               for c1, c2, t in inputs + _qubits(20, 3))


def _cz_worst(params: QiParams) -> float:
    # the qicz demo itself (photon |1>, particle blocking), then its wiring
    # on the basis pairs and on random product inputs
    worst = _worst(DEMOS["qicz"](), ["p", "b"], CZ_MATRIX @ np.kron((0, 1), (1, 0)), params)
    for p, b in [(a, b) for a in _BASIS for b in _BASIS] + _qubits(20, 2):
        program = configurable_gate(photons=[("p", p)], particles=[("b", 2, (*b, 0))],
                                    interferometers=[("p", [("b", [0])])])
        worst = max(worst, _worst(program, ["p", "b"], CZ_MATRIX @ np.kron(p, b), params))
    return worst


@pytest.mark.parametrize("params", [IDEAL, DEEP], ids=["exact", "n10000"])
@pytest.mark.parametrize("family", CNOT_FAMILIES)
def test_cnot_family_is_a_cnot_on_criterion_6_inputs(family, params):
    assert _cnot_worst(family, params) <= _bound(family, params)


@pytest.mark.parametrize("params", [IDEAL, DEEP], ids=["exact", "n10000"])
def test_toffoli_is_a_ccnot_on_superposed_inputs(params):
    assert _toffoli_worst(params) <= _bound("toffoli", params)


@pytest.mark.parametrize("params", [IDEAL, DEEP], ids=["exact", "n10000"])
def test_qicz_demo_is_a_cz(params):
    assert _cz_worst(params) <= _bound("qicz", params)
