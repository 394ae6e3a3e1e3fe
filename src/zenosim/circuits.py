"""Circuit programs over named subsystems and classical bits, their
execution engine, and builders for the composite constructions: Bell pair
generator, multi-particle Toffoli, configurable interrogation wiring,
W-state generator, teleportation memory, and the CNOT families.

Subsystems enter the live state at their prepare instruction and leave it
when measured (measurement outcomes collapse to a product factor), so the
concurrent dimension stays small even for programs that touch many
subsystems over their lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gates
from .interrogation import QiParams, qicz, qicz_multi
from .state import (
    PARTICLE_PM,
    PHOTON_COMPUTATIONAL,
    PHOTON_FAIL,
    PM_EXPLODED,
    QUDIT_POSITION,
    ClassicalRegister,
    StateVector,
    SubsystemSpec,
    add_subsystem,
    branch_all,
    measure,
    norm_sq,
    particle,
    photon,
)

# op -> arguments every instruction of that op must carry
REQUIRED_ARGS = {
    "prepare": ("target",),
    "photon_h": ("target",), "photon_x": ("target",), "photon_z": ("target",),
    "particle_h": ("target",), "particle_x": ("target",),
    "particle_z": ("target",),
    "qicz": ("photon", "particle"),
    "qicz_multi": ("photon", "particles"),
    "measure": ("target", "basis", "bit"),
    "cx": ("bit", "target"), "cz": ("bit", "target"),
    "cphase": ("key", "target", "coeff"),
    "xor": ("a", "b", "out"),
}
VALID_OPS = frozenset(REQUIRED_ARGS)

MEASUREMENT_BASES = frozenset({
    PHOTON_COMPUTATIONAL, PARTICLE_PM, "particle_computational", QUDIT_POSITION,
})


@dataclass(frozen=True)
class Instruction:
    op: str
    args: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.op, str) or self.op not in VALID_OPS:
            raise ValueError(f"unknown op {self.op!r}")
        missing = [k for k in REQUIRED_ARGS[self.op] if k not in self.args]
        if missing:
            raise ValueError(f"{self.op} needs argument {missing[0]!r}")


@dataclass(frozen=True)
class CircuitProgram:
    subsystems: tuple[SubsystemSpec, ...]
    bits: tuple[str, ...]
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        validate_program(self)

    def spec(self, name: str) -> SubsystemSpec:
        for s in self.subsystems:
            if s.name == name:
                return s
        raise KeyError(f"undeclared subsystem {name!r}")


def _instr_subsystems(instr: Instruction) -> list[str]:
    a = instr.args
    if instr.op in ("prepare", "photon_h", "photon_x", "photon_z",
                    "particle_h", "particle_x", "particle_z", "measure",
                    "cx", "cz", "cphase"):
        return [a["target"]]
    if instr.op == "qicz":
        return [a["photon"], a["particle"]]
    if instr.op == "qicz_multi":
        return [a["photon"], *a["particles"]]
    return []


def validate_program(program: CircuitProgram) -> None:
    """Static checks: declared names only, prepare-before-use, no use after
    measurement, classical values written before read, and cx/cz only on
    bits that can hold nothing but 0 and 1."""
    declared = {s.name for s in program.subsystems}
    if len(declared) != len(program.subsystems):
        raise ValueError("duplicate subsystem name")
    bits = set(program.bits)
    if len(bits) != len(program.bits):
        raise ValueError("duplicate bit name")
    live: set[str] = set()
    gone: set[str] = set()
    arity: dict[str, int] = {}  # bit -> number of values it can hold
    for pos, instr in enumerate(program.instructions):
        where = f"instructions[{pos}]"
        for name in _instr_subsystems(instr):
            if name not in declared:
                raise ValueError(f"{where}: undeclared subsystem {name!r}")
        if instr.op == "prepare":
            t = instr.args["target"]
            if t in live:
                raise ValueError(f"{where}: {t!r} prepared twice")
            if t in gone:
                raise ValueError(f"{where}: {t!r} reused after measurement")
            live.add(t)
        elif instr.op == "xor":
            for b in (instr.args["a"], instr.args["b"]):
                if b not in bits:
                    raise ValueError(f"{where}: undeclared bit {b!r}")
                if b not in arity:
                    raise ValueError(f"{where}: bit {b!r} read before write")
            out = instr.args["out"]
            if out not in bits:
                raise ValueError(f"{where}: undeclared bit {out!r}")
            widest = max(arity[instr.args["a"]], arity[instr.args["b"]]) - 1
            arity[out] = 1 << widest.bit_length()
        else:
            for name in _instr_subsystems(instr):
                if name in gone:
                    raise ValueError(f"{where}: {name!r} used after measurement")
                if name not in live:
                    raise ValueError(f"{where}: {name!r} used before prepare")
            if instr.op == "measure":
                basis = instr.args["basis"]
                if basis not in MEASUREMENT_BASES:
                    raise ValueError(f"{where}: unknown basis {basis!r}")
                bit = instr.args["bit"]
                if bit not in bits:
                    raise ValueError(f"{where}: undeclared bit {bit!r}")
                t = instr.args["target"]
                spec = program.spec(t)
                # a failure outcome ends the run, so a position basis records
                # one of the particle's positions and every other basis 0 or 1
                binary = (basis in (PHOTON_COMPUTATIONAL, PARTICLE_PM)
                          or spec.kind != "particle")
                arity[bit] = 2 if binary else spec.positions()
                live.discard(t)
                gone.add(t)
            elif instr.op in ("cx", "cz"):
                b = instr.args["bit"]
                if b not in bits:
                    raise ValueError(f"{where}: undeclared bit {b!r}")
                if b not in arity:
                    raise ValueError(f"{where}: bit {b!r} read before write")
                if arity[b] > 2:
                    raise ValueError(
                        f"{where}: {instr.op} needs a 0/1 control, but bit {b!r} "
                        f"can hold 0..{arity[b] - 1}; use cphase for integer outcomes")
            elif instr.op == "cphase":
                k = instr.args["key"]
                if k not in bits:
                    raise ValueError(f"{where}: undeclared outcome {k!r}")
                if k not in arity:
                    raise ValueError(f"{where}: outcome {k!r} read before write")


@dataclass
class RunResult:
    final_state: StateVector
    classical: dict[str, int]
    success_probability: float
    failed: bool
    branch_weight: float = 1.0  # product of measurement branch weights


def _empty_state() -> StateVector:
    return StateVector((), np.ones((), dtype=np.complex128))


def _prepare_target(state: StateVector, program: CircuitProgram,
                    args: dict) -> StateVector:
    spec = program.spec(args["target"])
    if "pm" in args:
        state = add_subsystem(state, spec, 0)
        return gates.prepare_particle_pm(state, spec.name, args["pm"])
    if args.get("uniform"):
        state = add_subsystem(state, spec, 0)
        return gates.prepare_particle_uniform(state, spec.name)
    if "state" in args:
        vec = np.zeros(spec.dim, dtype=np.complex128)
        given = np.asarray(
            [complex(re, im) for re, im in args["state"]], dtype=np.complex128)
        if given.size > spec.dim:
            raise ValueError(f"initial vector too long for {spec.name!r}")
        if spec.kind == "photon" and given.size == 2:
            vec[0], vec[1] = given  # logical |0>, |1H>
        else:
            vec[: given.size] = given
        return add_subsystem(state, spec, vec)
    return add_subsystem(state, spec, int(args.get("level", 0)))


def _apply_gate(state: StateVector, register: ClassicalRegister,
                instr: Instruction, params: QiParams) -> StateVector:
    op, a = instr.op, instr.args
    if op == "photon_h":
        return gates.photon_h(state, a["target"])
    if op == "photon_x":
        return gates.photon_x(state, a["target"])
    if op == "photon_z":
        return gates.photon_z(state, a["target"])
    if op == "particle_h":
        return gates.particle_h(state, a["target"])
    if op == "particle_x":
        return gates.particle_x(state, a["target"])
    if op == "particle_z":
        return gates.particle_z(state, a["target"])
    if op == "qicz":
        return qicz(state, a["photon"], a["particle"], params)
    if op == "qicz_multi":
        return qicz_multi(state, a["photon"], a["particles"], params,
                          blocking=a.get("blocking"))
    if op in ("cx", "cz"):
        return gates.classically_controlled(state, register, a["bit"], op,
                                            a["target"])
    if op == "cphase":
        return gates.classically_controlled_phase(state, register, a["key"],
                                                  a["target"], a["coeff"])
    raise ValueError(f"not a gate op: {op!r}")


def _failed_result(state, register, weight) -> RunResult:
    return RunResult(final_state=state, classical=register.as_dict(),
                     success_probability=0.0, failed=True,
                     branch_weight=weight)


def _is_failure_outcome(basis: str, outcome: int, positions: int) -> bool:
    if basis == PHOTON_COMPUTATIONAL:
        return outcome == PHOTON_FAIL
    if basis == PARTICLE_PM:
        return outcome == PM_EXPLODED
    return outcome == positions  # exploded level in position bases


def run(program: CircuitProgram, params: QiParams | None = None,
        rng: np.random.Generator | None = None,
        profile: gates.ImperfectionProfile | None = None) -> RunResult:
    """Single sampled trajectory.  Measurement outcomes are drawn with Born
    probabilities; with a profile, each imperfectible instruction draws one
    Bernoulli trial and a failed draw heralds the run failed."""
    params = params or QiParams()
    rng = rng or np.random.default_rng(0)
    state = _empty_state()
    register = ClassicalRegister()
    weight = 1.0
    for instr in program.instructions:
        if profile is not None:
            prob = gates.instruction_success(
                profile, instr.op, instr.args.get("basis"))
            needs_draw = (instr.op in gates.INSTRUCTION_SUCCESS_FIELD
                          or (instr.op == "measure"
                              and instr.args.get("basis") == PHOTON_COMPUTATIONAL))
            if needs_draw and rng.random() >= prob:
                zero = StateVector(state.layout, np.zeros_like(state.amps))
                return _failed_result(zero, register, weight)
        if instr.op == "prepare":
            state = _prepare_target(state, program, instr.args)
        elif instr.op == "xor":
            register.set(instr.args["out"],
                         register.get(instr.args["a"]) ^ register.get(instr.args["b"]))
        elif instr.op == "measure":
            target, basis = instr.args["target"], instr.args["basis"]
            spec = state.spec(target)
            outcome, state, prob = measure(state, target, basis, rng)
            weight *= prob
            register.set(instr.args["bit"], outcome)
            positions = spec.positions() if spec.kind == "particle" else 0
            if _is_failure_outcome(basis, outcome, positions):
                return _failed_result(state, register, weight)
        else:
            state = _apply_gate(state, register, instr, params)
    return RunResult(final_state=state, classical=register.as_dict(),
                     success_probability=weight * norm_sq(state),
                     failed=False, branch_weight=weight)


def run_all_branches(program: CircuitProgram,
                     params: QiParams | None = None) -> list[RunResult]:
    """Exhaustive enumeration of every measurement branch (ideal components
    only).  Branches appear in depth-first outcome order; weights plus the
    pruned deficit account for all probability."""
    params = params or QiParams()
    results: list[RunResult] = []

    def walk(state: StateVector, register: ClassicalRegister,
             weight: float, pos: int) -> None:
        for i in range(pos, len(program.instructions)):
            instr = program.instructions[i]
            if instr.op == "prepare":
                state = _prepare_target(state, program, instr.args)
            elif instr.op == "xor":
                register.set(instr.args["out"],
                             register.get(instr.args["a"]) ^ register.get(instr.args["b"]))
            elif instr.op == "measure":
                target, basis = instr.args["target"], instr.args["basis"]
                spec = state.spec(target)
                positions = spec.positions() if spec.kind == "particle" else 0
                for outcome, post, prob in branch_all(state, target, basis):
                    sub = ClassicalRegister()
                    for k, v in register.as_dict().items():
                        sub.set(k, v)
                    sub.set(instr.args["bit"], outcome)
                    if _is_failure_outcome(basis, outcome, positions):
                        results.append(_failed_result(post, sub, weight * prob))
                    else:
                        walk(post, sub, weight * prob, i + 1)
                return
            else:
                state = _apply_gate(state, register, instr, params)
        results.append(RunResult(final_state=state, classical=register.as_dict(),
                                 success_probability=weight * norm_sq(state),
                                 failed=False, branch_weight=weight))

    walk(_empty_state(), ClassicalRegister(), 1.0, 0)
    return results


def gate_census(program: CircuitProgram) -> dict[str, int]:
    """Instruction counts per component class."""
    census = {"h_optical": 0, "qicz": 0, "cc": 0, "h_particle": 0,
              "detectors": 0, "particle_measurements": 0}
    for instr in program.instructions:
        if instr.op == "photon_h":
            census["h_optical"] += 1
        elif instr.op in ("qicz", "qicz_multi"):
            census["qicz"] += 1
        elif instr.op in ("cx", "cz", "cphase"):
            census["cc"] += 1
        elif instr.op == "particle_h":
            census["h_particle"] += 1
        elif instr.op == "measure":
            if instr.args["basis"] == PHOTON_COMPUTATIONAL:
                census["detectors"] += 1
            else:
                census["particle_measurements"] += 1
    return census


# ---------------------------------------------------------------------------
# builders

def _vec_arg(vec) -> list[list[float]]:
    v = np.asarray(vec, dtype=np.complex128)
    return [[float(x.real), float(x.imag)] for x in v]


def _ins(op: str, **args) -> Instruction:
    return Instruction(op, args)


def bell_generator() -> CircuitProgram:
    """Two blank photons, one shared particle: measuring the particle in the
    +/- basis leaves the photons in one of two Bell states (branch label
    tells which; no post-correction is applied)."""
    return CircuitProgram(
        subsystems=(photon("p1"), photon("p2"), particle("b")),
        bits=("m",),
        instructions=(
            _ins("prepare", target="p1", level=0),
            _ins("photon_h", target="p1"),
            _ins("prepare", target="p2", level=0),
            _ins("photon_h", target="p2"),
            _ins("prepare", target="b", pm="+"),
            _ins("qicz", photon="p1", particle="b"),
            _ins("qicz", photon="p2", particle="b"),
            _ins("measure", target="b", basis=PARTICLE_PM, bit="m"),
        ),
    )


def toffoli(control1=(1, 0, 0), control2=(1, 0, 0), target=(1, 0)) -> CircuitProgram:
    """Doubly controlled NOT: two particles control, the photon is the
    target.  Controls are particle position vectors (blocked, open, x)."""
    return CircuitProgram(
        subsystems=(particle("c1"), particle("c2"), photon("t")),
        bits=(),
        instructions=(
            _ins("prepare", target="c1", state=_vec_arg(control1)),
            _ins("prepare", target="c2", state=_vec_arg(control2)),
            _ins("prepare", target="t", state=_vec_arg(target)),
            _ins("photon_h", target="t"),
            _ins("qicz_multi", photon="t", particles=["c1", "c2"]),
            _ins("photon_h", target="t"),
        ),
    )


def configurable_gate(photons, particles, interferometers) -> CircuitProgram:
    """Generic interrogation wiring.

    photons: [(name, input vector over logical levels)]
    particles: [(name, positions, input vector over all levels)]
    interferometers: [(photon name, [(particle name, blocking positions)])];
    the same particle may appear in several interferometers with different
    blocking sets, but only once per interferometer.
    """
    subsystems = [photon(n) for n, _ in photons]
    subsystems += [particle(n, positions=d) for n, d, _ in particles]
    instructions = [
        _ins("prepare", target=n, state=_vec_arg(v)) for n, v in photons
    ]
    instructions += [
        _ins("prepare", target=n, state=_vec_arg(v)) for n, _, v in particles
    ]
    for ph_name, wiring in interferometers:
        names = [w[0] for w in wiring]
        if len(set(names)) != len(names):
            raise ValueError(f"particle wired twice into one interferometer on {ph_name!r}")
        blocking = [sorted(w[1]) if not isinstance(w[1], int) else [w[1]]
                    for w in wiring]
        instructions.append(_ins("qicz_multi", photon=ph_name, particles=names,
                                 blocking=blocking))
    return CircuitProgram(tuple(subsystems), (), tuple(instructions))


def w_state_generator(m: int) -> CircuitProgram:
    """Single-excitation entangler: one m-position particle phase-marks one
    of m photons, the particle's Fourier transform erases which-one
    information, and outcome-controlled phases undo the leftover twist."""
    if m < 2:
        raise ValueError("need at least 2 photons")
    plus = _vec_arg(np.array([1, 1]) / np.sqrt(2))
    subsystems = [photon(f"w{i}") for i in range(m)] + [particle("q", positions=m)]
    instructions = [_ins("prepare", target="q", uniform=True)]
    instructions += [_ins("prepare", target=f"w{i}", state=plus) for i in range(m)]
    for i in range(m):
        instructions.append(_ins(
            "qicz_multi", photon=f"w{i}", particles=["q"],
            blocking=[sorted(set(range(m)) - {i})]))
    instructions += [_ins("photon_h", target=f"w{i}") for i in range(m)]
    instructions.append(_ins("particle_h", target="q"))
    instructions.append(_ins("measure", target="q", basis=QUDIT_POSITION, bit="k"))
    for j in range(m):
        instructions.append(_ins("cphase", key="k", target=f"w{j}",
                                 coeff=-2.0 * np.pi * j / m))
    return CircuitProgram(tuple(subsystems), ("k",), tuple(instructions))


def memory_write(photon_name: str, particle_name: str, outcome_bit: str):
    """Store a photon's qubit in a pm-prepared particle; the recorded bit
    says which sign convention the content picked up."""
    return [
        _ins("qicz", photon=photon_name, particle=particle_name),
        _ins("photon_h", target=photon_name),
        _ins("measure", target=photon_name, basis=PHOTON_COMPUTATIONAL,
             bit=outcome_bit),
    ]


def memory_read(particle_name: str, fresh_photon: str, pm_bit: str,
                write_bit: str):
    """Recreate the stored qubit on a fresh photon; the particle measurement
    bit controls an X, the write bit a Z."""
    return [
        _ins("prepare", target=fresh_photon, level=0),
        _ins("photon_h", target=fresh_photon),
        _ins("qicz", photon=fresh_photon, particle=particle_name),
        _ins("measure", target=particle_name, basis=PARTICLE_PM, bit=pm_bit),
        _ins("cx", bit=pm_bit, target=fresh_photon),
        _ins("cz", bit=write_bit, target=fresh_photon),
    ]


def memory_roundtrip(psi=(1, 0), sign: str = "+") -> CircuitProgram:
    """Write an arbitrary qubit into the particle memory and read it back.
    With the particle prepared |->, readout returns X|psi>."""
    instructions = [
        _ins("prepare", target="pin", state=_vec_arg(psi)),
        _ins("prepare", target="m", pm=sign),
    ]
    instructions += memory_write("pin", "m", "a")
    instructions += memory_read("m", "pout", "c", "a")
    return CircuitProgram(
        subsystems=(photon("pin"), photon("pout"), particle("m")),
        bits=("a", "c"),
        instructions=tuple(instructions),
    )


MEMORY = "memory"
HALF_MEMORY_KEEP_CONTROL = "half-memory-keep-control"
HALF_MEMORY_KEEP_TARGET = "half-memory-keep-target"
DIRECT_CX = "direct-cx"
DIRECT_CZ = "direct-cz"
CNOT_FAMILIES = (MEMORY, HALF_MEMORY_KEEP_CONTROL, HALF_MEMORY_KEEP_TARGET,
                 DIRECT_CX, DIRECT_CZ)


def cnot_output_names(family: str) -> tuple[str, str]:
    """(control, target) subsystem names carrying the circuit's output."""
    return {
        MEMORY: ("cp", "tp"),
        HALF_MEMORY_KEEP_CONTROL: ("c", "tp"),
        HALF_MEMORY_KEEP_TARGET: ("cp", "t"),
        DIRECT_CX: ("c", "t"),
        DIRECT_CZ: ("c", "t"),
    }[family]


def cnot_circuit(family: str, control=(1, 0), target=(1, 0),
                 merged: bool = True) -> CircuitProgram:
    """A CNOT(control -> target) realization from the given family; every
    measurement branch equals the ideal CNOT output after corrections.

    The memory family teleports both photons through particle memories with
    a CZ coupling between the write stages; `merged=False` keeps its two
    control-line Z corrections separate instead of combining their bits
    with a classical XOR.  The half-memory families teleport one photon;
    the direct families measure only the shared particle.
    """
    pin = [
        _ins("prepare", target="c", state=_vec_arg(control)),
        _ins("prepare", target="t", state=_vec_arg(target)),
    ]
    if family == MEMORY:
        instructions = pin + [
            _ins("prepare", target="mt", pm="+"),
            *memory_write("t", "mt", "a_t"),
            _ins("qicz", photon="c", particle="mt"),
            _ins("prepare", target="mc", pm="+"),
            *memory_write("c", "mc", "a_c"),
            *memory_read("mt", "tp", "c_t", "a_t"),
            _ins("prepare", target="cp", level=0),
            _ins("photon_h", target="cp"),
            _ins("qicz", photon="cp", particle="mc"),
            _ins("measure", target="mc", basis=PARTICLE_PM, bit="c_c"),
            _ins("cx", bit="c_c", target="cp"),
        ]
        if merged:
            instructions += [
                _ins("xor", a="a_c", b="a_t", out="zc"),
                _ins("cz", bit="zc", target="cp"),
            ]
        else:
            instructions += [
                _ins("cz", bit="a_c", target="cp"),
                _ins("cz", bit="a_t", target="cp"),
            ]
        return CircuitProgram(
            subsystems=(photon("c"), photon("t"), photon("tp"), photon("cp"),
                        particle("mt"), particle("mc")),
            bits=("a_t", "a_c", "c_t", "c_c") + (("zc",) if merged else ()),
            instructions=tuple(instructions),
        )
    if family == HALF_MEMORY_KEEP_CONTROL:
        instructions = pin + [
            _ins("prepare", target="m", pm="+"),
            _ins("qicz", photon="c", particle="m"),
            *memory_write("t", "m", "a"),
            *memory_read("m", "tp", "cm", "a"),
            _ins("cz", bit="a", target="c"),
        ]
        return CircuitProgram(
            subsystems=(photon("c"), photon("t"), photon("tp"), particle("m")),
            bits=("a", "cm"),
            instructions=tuple(instructions),
        )
    if family == HALF_MEMORY_KEEP_TARGET:
        instructions = pin + [
            _ins("prepare", target="m", pm="+"),
            *memory_write("c", "m", "a"),
            _ins("particle_h", target="m"),
            _ins("photon_h", target="t"),
            _ins("qicz", photon="t", particle="m"),
            _ins("photon_h", target="t"),
            _ins("particle_h", target="m"),
            *memory_read("m", "cp", "cm", "a"),
        ]
        return CircuitProgram(
            subsystems=(photon("c"), photon("t"), photon("cp"), particle("m")),
            bits=("a", "cm"),
            instructions=tuple(instructions),
        )
    if family == DIRECT_CX:
        instructions = pin + [
            _ins("prepare", target="m", pm="+"),
            _ins("photon_h", target="t"),
            _ins("qicz", photon="t", particle="m"),
            _ins("photon_h", target="t"),
            _ins("particle_h", target="m"),
            _ins("qicz", photon="c", particle="m"),
            _ins("measure", target="m", basis=PARTICLE_PM, bit="d"),
            _ins("cx", bit="d", target="t"),
        ]
    elif family == DIRECT_CZ:
        instructions = pin + [
            _ins("prepare", target="m", pm="+"),
            _ins("qicz", photon="c", particle="m"),
            _ins("particle_h", target="m"),
            _ins("photon_h", target="t"),
            _ins("qicz", photon="t", particle="m"),
            _ins("photon_h", target="t"),
            _ins("measure", target="m", basis=PARTICLE_PM, bit="d"),
            _ins("cz", bit="d", target="c"),
        ]
    else:
        raise ValueError(f"unknown family {family!r}")
    return CircuitProgram(
        subsystems=(photon("c"), photon("t"), particle("m")),
        bits=("d",),
        instructions=tuple(instructions),
    )


def demo_programs() -> dict[str, CircuitProgram]:
    """The shipped, self-contained example programs."""
    uniform = np.array([1, 1]) / np.sqrt(2)
    demos = {
        "bell": bell_generator(),
        "qicz": configurable_gate(
            photons=[("p", (0, 1))],
            particles=[("b", 2, (1, 0, 0))],
            interferometers=[("p", [("b", [0])])],
        ),
        "toffoli": toffoli(control1=(0, 1, 0), control2=(0, 1, 0), target=(1, 0)),
        "wstate-2": w_state_generator(2),
        "wstate-3": w_state_generator(3),
        "wstate-4": w_state_generator(4),
        "memory": memory_roundtrip(psi=uniform, sign="+"),
    }
    for family in CNOT_FAMILIES:
        demos[f"cnot-{family}"] = cnot_circuit(family, control=uniform,
                                               target=(1, 0))
    return demos
