"""Circuit programs over named subsystems and classical bits, their
execution engine, and builders for the composite constructions: Bell pair
generator, multi-particle Toffoli, configurable interrogation wiring,
W-state generator, teleportation memory, and the CNOT families.

Every fact about an op lives in one row of `OPS`: its argument schema, the
subsystems and bits its arguments name, its census class, the imperfection
field it is charged, and its engine action.  The validator, the census, the
profile draws and the interpreter all read that table.  One instruction
walk runs programs; a measurement policy decides whether a measurement
follows one sampled outcome (`run`) or every outcome (`run_all_branches`).

Subsystems enter the live state at their prepare instruction and leave it
when measured (measurement outcomes collapse to a product factor), so the
concurrent dimension stays small even for programs that touch many
subsystems over their lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import gates
from .interrogation import QiParams, qicz, qicz_multi
from .state import (
    PARTICLE_COMPUTATIONAL,
    PARTICLE_PM,
    PHOTON_COMPUTATIONAL,
    PHOTON_FAIL,
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


# ---------------------------------------------------------------------------
# argument types

def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool))


def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_list(v, item) -> bool:
    return isinstance(v, (list, tuple)) and all(map(item, v))


@dataclass(frozen=True)
class ArgType:
    """What an instruction argument must hold, and the role of the names it
    holds: "subsystem" (in use), "prepare" (enters the state), "measure"
    (leaves it), "basis", "read" (a bit), "control" (a bit that may hold
    only 0 and 1) or "write" (a bit)."""

    describe: str
    check: Callable[[object], bool]
    role: str | None = None


SUBSYSTEM = ArgType("a subsystem name", _is_str, "subsystem")
SUBSYSTEMS = ArgType("a list of subsystem names",
                     lambda v: _is_list(v, _is_str), "subsystem")
PREPARED = ArgType("a subsystem name", _is_str, "prepare")
MEASURED = ArgType("a subsystem name", _is_str, "measure")
BASIS = ArgType("a basis name", _is_str, "basis")
READ = ArgType("a bit name", _is_str, "read")
CONTROL = ArgType("a bit name", _is_str, "control")
WRITE = ArgType("a bit name", _is_str, "write")
TEXT = ArgType("a string", _is_str)
INTEGER = ArgType("an integer", _is_int)
NUMBER = ArgType("a number", _is_real)
# serialized programs carry a flag as 0 or 1
FLAG = ArgType("true, false, 0 or 1",
               lambda v: isinstance(v, (int, np.integer)) and v in (0, 1))
AMPLITUDES = ArgType(
    "a list of [re, im] pairs",
    lambda v: _is_list(v, lambda p: _is_list(p, _is_real) and len(p) == 2))
BLOCKING = ArgType(
    "a list of blocking positions or position lists",
    lambda v: v is None or _is_list(v, lambda b: _is_int(b) or _is_list(b, _is_int)))

# measurement basis -> census class of one measurement in it
MEASUREMENT_BASES = {
    PHOTON_COMPUTATIONAL: "detectors",
    PARTICLE_PM: "particle_measurements",
    PARTICLE_COMPUTATIONAL: "particle_measurements",
    QUDIT_POSITION: "particle_measurements",
}


# ---------------------------------------------------------------------------
# the op table

class _Context(NamedTuple):
    program: CircuitProgram
    params: QiParams
    register: ClassicalRegister


@dataclass
class OpSpec:
    """One op.  `args` and `optional` map argument names to their types.
    `action(state, args, context)` returns the next state; a measurement
    has none, because the walk's policy measures.  `census` and `charge`
    (the ImperfectionProfile field whose Bernoulli draw the op consumes)
    are a dict per basis for a measurement.  `values(args, program, arity)`
    is how many values a bit the op writes can hold."""

    args: dict
    action: Callable | None
    optional: dict = field(default_factory=dict)
    census: str | dict | None = None
    charge: str | dict | None = None
    values: Callable | None = None

    def __post_init__(self):
        self.schema = {**self.args, **self.optional}
        # subsystems are checked before bits, each group in argument order
        self.roles = tuple(sorted(
            ((name, kind.role) for name, kind in self.args.items() if kind.role),
            key=lambda item: item[1] in ("basis", "read", "control", "write")))


def _gate(name: str):
    # look the gate up at call time, so a rebound gates.<name> takes effect
    return lambda state, a, ctx: getattr(gates, name)(state, a["target"])


def _controlled(op: str):
    return lambda state, a, ctx: gates.classically_controlled(
        state, ctx.register, a["bit"], op, a["target"])


def _prepare(state: StateVector, args: dict, ctx: _Context) -> StateVector:
    spec = ctx.program.spec(args["target"])
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


def _xor(state: StateVector, a: dict, ctx: _Context) -> StateVector:
    ctx.register.set(a["out"], ctx.register.get(a["a"]) ^ ctx.register.get(a["b"]))
    return state


def _measured_values(a: dict, program: CircuitProgram, arity: dict) -> int:
    # a failure outcome ends the run, so a position basis records one of the
    # particle's positions and every other basis 0 or 1
    spec = program.spec(a["target"])
    if a["basis"] in (PHOTON_COMPUTATIONAL, PARTICLE_PM) or spec.kind != "particle":
        return 2
    return spec.positions()


def _xor_values(a: dict, program: CircuitProgram, arity: dict) -> int:
    widest = max(arity[a["a"]], arity[a["b"]]) - 1
    return 1 << widest.bit_length()


_TARGET = {"target": SUBSYSTEM}

OPS = {
    "prepare": OpSpec({"target": PREPARED}, _prepare, optional={
        "level": INTEGER, "pm": TEXT, "uniform": FLAG, "state": AMPLITUDES}),
    "photon_h": OpSpec(_TARGET, _gate("photon_h"), census="h_optical", charge="p"),
    "photon_x": OpSpec(_TARGET, _gate("photon_x")),
    "photon_z": OpSpec(_TARGET, _gate("photon_z")),
    "particle_h": OpSpec(_TARGET, _gate("particle_h"), census="h_particle",
                         charge="s"),
    "particle_x": OpSpec(_TARGET, _gate("particle_x")),
    "particle_z": OpSpec(_TARGET, _gate("particle_z")),
    "qicz": OpSpec(
        {"photon": SUBSYSTEM, "particle": SUBSYSTEM},
        lambda state, a, ctx: qicz(state, a["photon"], a["particle"], ctx.params),
        census="qicz", charge="q"),
    "qicz_multi": OpSpec(
        {"photon": SUBSYSTEM, "particles": SUBSYSTEMS},
        lambda state, a, ctx: qicz_multi(state, a["photon"], a["particles"],
                                         ctx.params, blocking=a.get("blocking")),
        optional={"blocking": BLOCKING}, census="qicz", charge="q"),
    "measure": OpSpec({"target": MEASURED, "basis": BASIS, "bit": WRITE}, None,
                      census=MEASUREMENT_BASES,
                      charge={PHOTON_COMPUTATIONAL: "eta"},
                      values=_measured_values),
    "cx": OpSpec({"bit": CONTROL, "target": SUBSYSTEM}, _controlled("cx"),
                 census="cc", charge="r"),
    "cz": OpSpec({"bit": CONTROL, "target": SUBSYSTEM}, _controlled("cz"),
                 census="cc", charge="r"),
    "cphase": OpSpec(
        {"key": READ, "target": SUBSYSTEM, "coeff": NUMBER},
        lambda state, a, ctx: gates.classically_controlled_phase(
            state, ctx.register, a["key"], a["target"], a["coeff"]),
        census="cc", charge="r"),
    "xor": OpSpec({"a": READ, "b": READ, "out": WRITE}, _xor, values=_xor_values),
}

CENSUS_CLASSES = tuple(dict.fromkeys(
    c for spec in OPS.values()
    for c in (spec.census.values() if isinstance(spec.census, dict)
              else [spec.census])
    if c))


@dataclass(frozen=True)
class Instruction:
    op: str
    args: dict = field(default_factory=dict)

    def __post_init__(self):
        spec = OPS.get(self.op) if isinstance(self.op, str) else None
        if spec is None:
            raise ValueError(f"unknown op {self.op!r}")
        for name, kind in spec.schema.items():
            if name not in self.args:
                if name in spec.args:
                    raise ValueError(f"{self.op} needs argument {name!r}")
            elif not kind.check(self.args[name]):
                raise ValueError(f"{self.op} argument {name!r} must be "
                                 f"{kind.describe}, got {self.args[name]!r}")

    def _per_basis(self, value):
        return value.get(self.args["basis"]) if isinstance(value, dict) else value

    @cached_property
    def census(self) -> str | None:
        """Component class the gate census counts this instruction in."""
        return self._per_basis(OPS[self.op].census)

    @cached_property
    def charge(self) -> str | None:
        """ImperfectionProfile field whose Bernoulli draw this instruction
        consumes, or None for a perfect instruction."""
        return self._per_basis(OPS[self.op].charge)


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
        for arg, role in OPS[instr.op].roles:
            value = instr.args[arg]
            for name in [value] if isinstance(value, str) else value:
                if role == "basis":
                    if name not in MEASUREMENT_BASES:
                        raise ValueError(f"{where}: unknown basis {name!r}")
                elif role in ("read", "control", "write"):
                    if name not in bits:
                        raise ValueError(f"{where}: undeclared bit {name!r}")
                    if role == "write":
                        arity[name] = OPS[instr.op].values(instr.args, program, arity)
                    elif name not in arity:
                        raise ValueError(f"{where}: bit {name!r} read before write")
                    elif role == "control" and arity[name] > 2:
                        raise ValueError(
                            f"{where}: {instr.op} needs a 0/1 control, but bit "
                            f"{name!r} can hold 0..{arity[name] - 1}; use cphase "
                            "for integer outcomes")
                elif name not in declared:
                    raise ValueError(f"{where}: undeclared subsystem {name!r}")
                elif role == "prepare":
                    if name in live:
                        raise ValueError(f"{where}: {name!r} prepared twice")
                    if name in gone:
                        raise ValueError(f"{where}: {name!r} reused after measurement")
                    live.add(name)
                elif name in gone:
                    raise ValueError(f"{where}: {name!r} used after measurement")
                elif name not in live:
                    raise ValueError(f"{where}: {name!r} used before prepare")
                elif role == "measure":
                    live.remove(name)
                    gone.add(name)


@dataclass
class RunResult:
    final_state: StateVector
    classical: dict[str, int]
    success_probability: float
    failed: bool
    branch_weight: float = 1.0  # product of measurement branch weights


def _walk(program: CircuitProgram, params: QiParams | None, outcomes,
          profile: gates.ImperfectionProfile | None = None,
          rng: np.random.Generator | None = None) -> list[RunResult]:
    """The one instruction walk.  `outcomes(state, target, basis)` is the
    measurement policy: the [(outcome, post_state, weight)] branches to
    follow.  With a profile, each charged instruction draws one uniform from
    `rng` before it acts, and a failed draw zeroes the state and heralds
    the branch failed."""
    params = params or QiParams()
    results: list[RunResult] = []

    def finish(state, register, weight, failed):
        results.append(RunResult(
            final_state=state, classical=register.as_dict(),
            success_probability=0.0 if failed else weight * norm_sq(state),
            failed=failed, branch_weight=weight))

    def step(state, register, weight, pos):
        ctx = _Context(program, params, register)
        for i in range(pos, len(program.instructions)):
            instr = program.instructions[i]
            charge = instr.charge if profile is not None else None
            if charge and rng.random() >= getattr(profile, charge):
                zero = StateVector(state.layout, np.zeros_like(state.amps))
                return finish(zero, register, weight, True)
            action = OPS[instr.op].action
            if action is not None:
                state = action(state, instr.args, ctx)
                continue
            target = instr.args["target"]
            spec = state.spec(target)
            failure = PHOTON_FAIL if spec.kind == "photon" else spec.exploded_level()
            for outcome, post, prob in outcomes(state, target, instr.args["basis"]):
                sub = ClassicalRegister()
                for k, v in register.as_dict().items():
                    sub.set(k, v)
                sub.set(instr.args["bit"], outcome)
                if outcome == failure:
                    finish(post, sub, weight * prob, True)
                else:
                    step(post, sub, weight * prob, i + 1)
            return
        finish(state, register, weight, False)

    step(StateVector((), np.ones((), dtype=np.complex128)), ClassicalRegister(),
         1.0, 0)
    return results


def run(program: CircuitProgram, params: QiParams | None = None,
        rng: np.random.Generator | None = None,
        profile: gates.ImperfectionProfile | None = None) -> RunResult:
    """Single sampled trajectory.  Measurement outcomes are drawn with Born
    probabilities; with a profile, each imperfectible instruction draws one
    Bernoulli trial and a failed draw heralds the run failed."""
    rng = rng or np.random.default_rng(0)
    return _walk(program, params,
                 lambda state, target, basis: [measure(state, target, basis, rng)],
                 profile, rng)[0]


def run_all_branches(program: CircuitProgram,
                     params: QiParams | None = None) -> list[RunResult]:
    """Exhaustive enumeration of every measurement branch (ideal components
    only).  Branches appear in depth-first outcome order; weights plus the
    pruned deficit account for all probability."""
    return _walk(program, params, branch_all)


def gate_census(program: CircuitProgram) -> dict[str, int]:
    """Instruction counts per component class."""
    census = dict.fromkeys(CENSUS_CLASSES, 0)
    for instr in program.instructions:
        if instr.census:
            census[instr.census] += 1
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
