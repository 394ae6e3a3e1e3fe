"""Each gate demo against the textbook gate it claims.

The oracle walks the same program as the engine, so a circuit that is
wrong is wrong in both, and the basis-input checks cannot see a phase.
Here every CNOT family, the Toffoli and the interrogation CZ run on basis
and superposed inputs, and every branch that does not fail must hold the
literal gate (`helpers.CNOT_MATRIX`, `CCNOT_MATRIX`, `CZ_MATRIX`, written
out, not built by the engine) applied to the input, up to one global phase
per branch.  At the exact limit the infidelity is rounding only; at
N = 10^4 each bound is twice the worst infidelity measured there, as
`test_reference_powers.py` sets its bounds.  The CNOTs and the Toffoli
also follow the law of their failure against depth and loss, stated
below.  The module's tests take about 1.1 s."""

import numpy as np
import pytest

from zenosim.circuits import (
    CNOT_FAMILIES,
    DEMOS,
    CircuitProgram,
    RunResult,
    cnot_circuit,
    cnot_output_names,
    configurable_gate,
    run_all_branches,
    toffoli,
)
from zenosim.interrogation import QiParams, wiring
from zenosim.state import PH_ONE_H, PH_ONE_V, PHOTON_DIM, norm_sq

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
    if params.cycles is None:  # no branch fails, and the kept ones hold every weight
        assert not any(r.failed for r in results)
        assert sum(r.success_probability for r in results) == pytest.approx(1.0, abs=1e-12)
    return max(abs(_infidelity(r, names, want)) for r in kept)


def _cnot_worst(family: str, params: QiParams) -> float:
    names = list(cnot_output_names(family))
    return max(_worst(cnot_circuit(family, control=c, target=t), names,
                      CNOT_MATRIX @ np.kron(c, t), params)
               for c, t in cnot_inputs())


def _toffoli_inputs() -> list[tuple]:
    """(control 1, control 2, target) qubits: the basis triples, then 20
    random product states."""
    return [(a, b, c) for a in _BASIS for b in _BASIS for c in _BASIS] + _qubits(20, 3)


def _toffoli_worst(params: QiParams) -> float:
    return max(_worst(toffoli((*c1, 0), (*c2, 0), t), ["c1", "c2", "t"],
                      CCNOT_MATRIX @ np.kron(np.kron(c1, c2), t), params)
               for c1, c2, t in _toffoli_inputs())


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


# The abstract's claim that the gates work "with probabilities arbitrarily
# close to 1", as a law of the failure 1 - P (the weight of every branch
# that fails, and of what no branch holds) against the depth N under the
# pi/N rule, absorb 1, and a per-cycle loss lam:
#
#     1 - P ~ a pi^2 / N + b N lam.
#
# A blocked pass keeps cos^(2N)(pi/N) = 1 - pi^2/N + O(N^-2) of the weight
# it sees and an open one loses nothing, so a is the weight that enters the
# program's interrogations on the photon's |1H> while a listed particle
# sits on a blocking position, summed over them.  Loss takes lam of the
# photon's |1> pair per cycle, so b is the weight that enters them on |1H>
# or |1V>.  Both are read per input from the exact-limit runs of the
# program's prefixes, so the law holds no constant of its own.  Under the
# pi/2N rule the failure does not vanish at all: the CNOTs need the pi/N
# rule.

# the worst a over the six product inputs with the control in |0>, |1> or
# |+> and the target in |0> or |1>, as first measured: N (1 - P) at N = 10^6
# was 19.7389, 12.3368, 7.4022, 7.4022 and 4.9348, that is 2 pi^2,
# 5 pi^2 / 4, 3 pi^2 / 4, 3 pi^2 / 4 and pi^2 / 2
WORST_A = {
    "memory": 2.0,
    "half-memory-keep-control": 1.25,
    "half-memory-keep-target": 0.75,
    "direct-cx": 0.75,
    "direct-cz": 0.5,
}

LAW_GATES = [*CNOT_FAMILIES, "toffoli"]

# twice the worst |N (1 - P) - a pi^2| / (a pi^2) over every gate's inputs,
# rounded up; measured on x86-64 with numpy 2 at 1.57e-3, 1.57e-4 and
# 1.57e-5 (the memory family): the next term is O(1/N^2)
LAW_BOUNDS = {10**4: 3.2e-3, 10**5: 3.2e-4, 10**6: 3.2e-5}

# twice the worst |(1 - P) - a pi^2 / N - b N lam| / (b N lam) over every
# gate's inputs at the depth that minimizes the worst input's failure,
# rounded up; measured as above at 2.07e-2 and 6.43e-2 (the memory family):
# the next terms are (N lam)^2 and the loss of weight that absorption
# takes first
LOSS_BOUNDS = {1e-6: 4.2e-2, 1e-5: 1.3e-1}


def _law_programs(gate: str) -> list:
    if gate == "toffoli":
        return [toffoli((*c1, 0), (*c2, 0), t) for c1, c2, t in _toffoli_inputs()]
    return [cnot_circuit(gate, control=c, target=t) for c, t in cnot_inputs()]


def _on_axis(state, name: str, values) -> np.ndarray:
    """`values` along the axis of `name`, broadcastable against the
    amplitudes of `state`."""
    shape = [1] * state.amps.ndim
    shape[state.axis(name)] = -1
    return np.reshape(values, shape)


def _entering(program) -> tuple[float, float]:
    """The law's (a, b) for `program`: before each interrogation, the
    program up to it runs at the exact limit, and every kept branch adds its
    weight on the photon's |1H> with a listed particle on one of its
    blocking positions to a, and its weight on the photon's |1H> or |1V> to
    b."""
    a = b = 0.0
    for i, instr in enumerate(program.instructions):
        if instr.op not in ("qicz", "qicz_multi"):
            continue
        names = instr.args.get("particles") or [instr.args["particle"]]
        prefix = CircuitProgram(program.subsystems, program.bits, program.instructions[:i])
        for result in run_all_branches(prefix, IDEAL):
            if result.failed:
                continue
            state = result.final_state
            weight = result.branch_weight * np.abs(state.amps) ** 2
            level = _on_axis(state, instr.args["photon"], np.arange(PHOTON_DIM))
            specs = [state.layout[state.axis(name)] for name in names]
            blocked = False
            for spec, positions in zip(specs, wiring(specs, instr.args.get("blocking"))):
                blocked = blocked | _on_axis(state, spec.name,
                                             np.isin(np.arange(spec.dim), positions))
            a += weight.sum(where=(level == PH_ONE_H) & blocked)
            b += weight.sum(where=np.isin(level, (PH_ONE_H, PH_ONE_V)))
    return float(a), float(b)


def _failure(program, params: QiParams) -> float:
    return 1.0 - sum(r.success_probability for r in run_all_branches(program, params)
                     if not r.failed)


def _law_deviations(gate: str) -> dict[int, float]:
    """Per depth N of `LAW_BOUNDS`, the worst |N (1 - P) - a pi^2| / (a pi^2)
    over the gate's inputs; an input with a = 0 (the Toffoli's with both
    controls open) is measured against pi^2 instead."""
    worst = dict.fromkeys(LAW_BOUNDS, 0.0)
    for program in _law_programs(gate):
        a, _ = _entering(program)
        scale = (a if a > 0 else 1.0) * np.pi ** 2
        for n in worst:
            got = n * _failure(program, QiParams(cycles=n))
            worst[n] = max(worst[n], abs(got - a * np.pi ** 2) / scale)
    return worst


def _loss_deviations(gate: str) -> dict[float, float]:
    """Per loss lam of `LOSS_BOUNDS`, the worst |(1 - P) - a pi^2 / N -
    b N lam| / (b N lam) over the gate's inputs, at the depth
    N* = pi sqrt(a / (b lam)) that minimizes the law for the input of
    largest a."""
    programs = _law_programs(gate)
    constants = [_entering(program) for program in programs]
    a_worst, b_worst = max(constants)
    worst = dict.fromkeys(LOSS_BOUNDS, 0.0)
    for lam in worst:
        n = round(np.pi * np.sqrt(a_worst / (b_worst * lam)))
        for program, (a, b) in zip(programs, constants):
            loss = _failure(program, QiParams(cycles=n, cycle_loss=lam)) - a * np.pi ** 2 / n
            worst[lam] = max(worst[lam], abs(loss - b * n * lam) / (b * n * lam))
    return worst


@pytest.mark.parametrize("family", CNOT_FAMILIES)
def test_worst_law_constant_is_the_closed_form(family):
    six = [(c, t) for c in ((1, 0), (0, 1), (np.sqrt(0.5), np.sqrt(0.5)))
           for t in ((1, 0), (0, 1))]
    worst = max(_entering(cnot_circuit(family, control=c, target=t))[0] for c, t in six)
    assert worst == pytest.approx(WORST_A[family], abs=1e-12)


@pytest.mark.parametrize("gate", LAW_GATES)
def test_failure_falls_as_a_pi_squared_over_n(gate):
    worst = _law_deviations(gate)
    assert all(worst[n] <= LAW_BOUNDS[n] for n in worst), worst


@pytest.mark.parametrize("gate", LAW_GATES)
def test_loss_adds_b_n_lambda_near_the_optimal_depth(gate):
    worst = _loss_deviations(gate)
    assert all(worst[lam] <= LOSS_BOUNDS[lam] for lam in worst), worst
