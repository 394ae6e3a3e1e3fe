"""Test-side helpers that the library itself has no use for."""

import numpy as np

from zenosim.state import StateVector


def reorder(state: StateVector, names: list[str]) -> StateVector:
    """Permute the layout to the given subsystem order."""
    if sorted(names) != sorted(s.name for s in state.layout):
        raise ValueError("names do not match layout")
    perm = [state.axis(n) for n in names]
    layout = tuple(state.layout[p] for p in perm)
    return StateVector(layout, np.transpose(state.amps, perm))


# textbook reference objects the tests compare against

CZ_MATRIX = np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128)

CNOT_MATRIX = np.array([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
], dtype=np.complex128)

CCNOT_MATRIX = np.eye(8, dtype=np.complex128)
CCNOT_MATRIX[6:8, 6:8] = np.array([[0, 1], [1, 0]])

_BELL = {
    "phi+": np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=np.complex128) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=np.complex128) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=np.complex128) / np.sqrt(2),
}


def bell_vector(kind: str) -> np.ndarray:
    return _BELL[kind].copy()


def w_vector(m: int) -> np.ndarray:
    """Single-excitation superposition over m qubits, length 2**m."""
    v = np.zeros(2 ** m, dtype=np.complex128)
    for i in range(m):
        v[1 << (m - 1 - i)] = 1.0
    return v / np.sqrt(m)
