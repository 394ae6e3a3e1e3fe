"""Statevector simulator for interrogation-based photonic circuits: the
cycle-level Zeno interferometer, the gates built on it, composite circuit
programs with classical feed-forward, a brute-force verification runner,
and yield/sweep analysis."""

from .analysis import (
    YieldEstimate,
    discrimination_success,
    fidelity_sweep,
    monte_carlo_yield,
    yield_formula,
    zeno_sweep,
)
from .circuits import (
    CNOT_FAMILIES,
    CircuitProgram,
    Instruction,
    RunResult,
    bell_generator,
    cnot_circuit,
    cnot_output_names,
    configurable_gate,
    demo_programs,
    gate_census,
    memory_roundtrip,
    run,
    run_all_branches,
    toffoli,
    w_state_generator,
)
from .gates import ImperfectionProfile
from .interrogation import QiParams, effective_map, qi_run, qicz, qicz_multi
from .oracle import brute_force_run, compare
from .state import StateVector, SubsystemSpec, particle, photon

__version__ = "0.1.0"

__all__ = [
    "CNOT_FAMILIES",
    "CircuitProgram",
    "ImperfectionProfile",
    "Instruction",
    "QiParams",
    "RunResult",
    "StateVector",
    "SubsystemSpec",
    "YieldEstimate",
    "bell_generator",
    "brute_force_run",
    "cnot_circuit",
    "cnot_output_names",
    "compare",
    "configurable_gate",
    "demo_programs",
    "discrimination_success",
    "effective_map",
    "fidelity_sweep",
    "gate_census",
    "memory_roundtrip",
    "monte_carlo_yield",
    "particle",
    "photon",
    "qi_run",
    "qicz",
    "qicz_multi",
    "run",
    "run_all_branches",
    "toffoli",
    "w_state_generator",
    "yield_formula",
    "zeno_sweep",
    "__version__",
]
