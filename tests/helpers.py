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
