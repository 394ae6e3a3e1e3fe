"""Circuit programs over named subsystems and classical bits, their
execution engine, and builders for the composite constructions: Bell pair
generator, multi-particle Toffoli, configurable interrogation wiring,
W-state generator, teleportation memory, and the CNOT families.

Every fact about an op lives in one row of `OPS`: its argument schema, the
subsystems (and the kind each must be) and bits its arguments name, its
census class (which alone fixes the imperfection field it is charged,
through `gates.CHARGED`), its engine action, and its bind hook (the
engine's own wiring, prepared-vector and phase checks, run at load, and
what the walk needs of the instruction).  The validator, the census, the
profile draws and the interpreter all read that table.  Validation binds
each instruction once and the program keeps the results, one plan entry
per instruction: a prepare's checked vector, a written bit's value count
(for a measure, its failure label) and the batch size of the segment a
measure opens, so a walk recounts none of them.  A walk's classical record
is a plain dict of bit name to value; the validator alone enforces that a
bit is written before it is read.  One instruction loop runs a program a
segment at a time, from the start or one measurement up to the next
measurement, on a batch of branches, each with its own classical record:
one branch is a plain state, and several are stacked along the state's
leading branch axis (see `state`).
`run_all_branches` walks a fresh tree in batches: the kept non-failure
outcomes of every branch of a batch form the next batches, as large as
`MAX_AMPLITUDES` lets their stacked states be, so each instruction runs
once per batch, not once per branch.
`run` keeps a tree of one-branch segments on the program and walks one
sampled path through it, so repeated runs only draw.  A program may make
the engine hold at most `MAX_AMPLITUDES` amplitudes in one state.

Subsystems enter the live state at their prepare instruction and leave it
when measured (measurement outcomes collapse to a product factor), so the
concurrent dimension stays small even for programs that touch many
subsystems over their lifetime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import gates
from .interrogation import QiParams, qicz, qicz_multi, wiring
from .state import (
    ATOL,
    PARTICLE_COMPUTATIONAL,
    PARTICLE_PM,
    PHOTON_COMPUTATIONAL,
    QUDIT_POSITION,
    StateVector,
    SubsystemSpec,
    _is_int,
    _is_real,
    add_subsystem,
    basis_outcomes,
    branch_all,
    draw_table,
    expect,
    initial_vector,
    norm_sq,
    particle,
    photon,
    sample_branch,
    stack_branches,
)

# The most amplitudes one live state may hold (16 MiB), and the most levels
# of one subsystem, so that a local gate's dense matrix is no larger.
MAX_AMPLITUDES = 2 ** 20
MAX_SUBSYSTEM_DIM = math.isqrt(MAX_AMPLITUDES)
# characters a bit name may not hold: the CSV `classical` cell joins bits
# as name=value pairs with ";", one row per line
BIT_NAME_BANS = frozenset(',;="\n\r')


# ---------------------------------------------------------------------------
# argument types

def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_list(v, item) -> bool:
    return isinstance(v, (list, tuple)) and all(map(item, v))


@dataclass(frozen=True)
class ArgType:
    """What an instruction argument must hold, and the role of the names it
    holds: "subsystem" (in use), "prepare" (enters the state), "measure"
    (leaves it), "read" (a bit), "control" (a bit that may hold only 0 and
    1) or "write" (a bit).  A subsystem in use must be what `needs` names,
    which `state.expect` checks."""

    describe: str
    check: Callable[[object], bool]
    role: str | None = None
    needs: str = ""


def _in_use(needs: str) -> ArgType:
    return ArgType("a subsystem name", _is_str, "subsystem", needs)


PHOTON = _in_use("a photon")
PARTICLE = _in_use("a particle")
PARTICLES = ArgType("a list of subsystem names", lambda v: _is_list(v, _is_str),
                    "subsystem", "a particle")
QUBIT_PARTICLE = _in_use("a 2-position particle")
PHOTON_OR_QUBIT = _in_use("a photon or a 2-position particle")
PREPARED = ArgType("a subsystem name", _is_str, "prepare")
MEASURED = ArgType("a subsystem name", _is_str, "measure")
BASIS = ArgType("a basis name", _is_str)
READ = ArgType("a bit name", _is_str, "read")
CONTROL = ArgType("a bit name", _is_str, "control")
WRITE = ArgType("a bit name", _is_str, "write")
TEXT = ArgType("a string", _is_str)
INTEGER = ArgType("an integer", _is_int)
NUMBER = ArgType("a number", _is_real)
# files written before flags were serialized as booleans carry 0 or 1
FLAG = ArgType("true, false, 0 or 1",
               lambda v: isinstance(v, (int, np.integer)) and v in (0, 1))
AMPLITUDES = ArgType(
    "a list of [re, im] pairs",
    lambda v: _is_list(v, lambda p: _is_list(p, _is_real) and len(p) == 2))
BLOCKING = ArgType(
    "a list of blocking positions or position lists",
    lambda v: v is None or _is_list(v, lambda b: _is_int(b) or _is_list(b, _is_int)))

# measurement basis -> census class of one measurement in it (which bases
# exist, and what each fits, is `basis_outcomes`'s rule)
MEASUREMENT_BASES = {
    PHOTON_COMPUTATIONAL: "detectors",
    PARTICLE_PM: "particle_measurements",
    PARTICLE_COMPUTATIONAL: "particle_measurements",
    QUDIT_POSITION: "particle_measurements",
}


# ---------------------------------------------------------------------------
# the op table

class _Context(NamedTuple):
    params: QiParams
    classical: list  # per branch of the batch: bit name -> recorded value


@dataclass
class OpSpec:
    """One op.  `args` and `optional` map argument names to their types.
    `action(state, args, bound, context)` returns the next state of a batch
    of branches, whose classical records the context lists, from the
    instruction's plan entry `bound`; a measurement has none, because the
    walk's policy measures.  `census` is a dict per basis for a
    measurement.  From `arity`, the value count of each bit written so far,
    `bind(args, program, arity)` rejects what the action would and returns
    the instruction's plan entry: a prepare's subsystem and checked vector,
    or the value count of the bit the op writes (a measure's failure
    label)."""

    args: dict
    action: Callable | None
    optional: dict = field(default_factory=dict)
    census: str | dict | None = None
    bind: Callable | None = None

    def __post_init__(self):
        self.schema = {**self.args, **self.optional}
        # subsystems are checked before bits, each group in argument order
        self.roles = tuple(sorted(
            ((name, kind) for name, kind in self.args.items() if kind.role),
            key=lambda item: item[1].role in ("read", "control", "write")))


def _gate(name: str):
    # look the gate up at call time, so a rebound gates.<name> takes effect
    return lambda state, a, *_: getattr(gates, name)(state, a["target"])


def _recorded(state: StateVector, ctx: _Context, bit: str):
    # the bit's value, as a list of one per branch on a batched state
    values = [classical[bit] for classical in ctx.classical]
    return values if state.batch is not None else values[0]


def _controlled(op: str):
    return lambda state, a, _, ctx: gates.classically_controlled(
        state, _recorded(state, ctx, a["bit"]), op, a["target"])


def _prepared(a: dict, program: CircuitProgram, arity: dict) -> tuple:
    # the subsystem a prepare instruction adds, and the checked, read-only
    # vector its one form gives; the one place the forms are read
    forms = [form for form in ("level", "pm", "state") if form in a]
    forms += ["uniform"] * bool(a.get("uniform"))
    if len(forms) > 1:
        raise ValueError("prepare takes one of level, pm, state or a true "
                         f"uniform, got {' and '.join(forms)}")
    spec = program.spec(a["target"])
    if "pm" in a:
        vec = gates.prepare_particle_pm(spec, a["pm"])
    elif a.get("uniform"):
        vec = gates.prepare_particle_uniform(spec)
    else:
        vec = np.zeros(spec.dim, dtype=np.complex128)
        if "state" in a:
            given = np.asarray(
                [complex(re, im) for re, im in a["state"]], dtype=np.complex128)
            if given.size > spec.dim:
                raise ValueError(f"initial vector too long for {spec.name!r}")
            vec[: given.size] = given  # a photon's pair is logical |0>, |1H>
        else:
            level = int(a.get("level", 0))
            if not 0 <= level < spec.dim:
                raise ValueError(f"level {level} out of range for {spec.name!r}")
            vec[level] = 1.0
    vec = initial_vector(spec, vec)
    vec.flags.writeable = False
    return spec, vec


def _xor(state: StateVector, a: dict, _, ctx: _Context) -> StateVector:
    # each record is replaced, not changed, so earlier snapshots stay as taken
    for i, c in enumerate(ctx.classical):
        ctx.classical[i] = {**c, a["out"]: c[a["a"]] ^ c[a["b"]]}
    return state


def _failure_label(a: dict, program: CircuitProgram, arity: dict) -> int:
    # outcomes are labelled 0..n-1 in basis order, the failure one last; it
    # ends the run unrecorded, so its label counts the values the bit holds
    return len(basis_outcomes(program.spec(a["target"]), a["basis"])) - 1


def _wiring_fits(a: dict, program: CircuitProgram, arity: dict) -> None:
    wiring([program.spec(name) for name in a["particles"]], a.get("blocking"))


def _phase_fits(a: dict, program: CircuitProgram, arity: dict) -> None:
    largest = arity[a["key"]] - 1  # values run 0..arity-1
    if not np.isfinite(float(a["coeff"]) * largest):
        raise ValueError(f"cphase coeff {a['coeff']!r} times {largest}, the largest "
                         f"value of bit {a['key']!r}, is not finite")


def _xor_values(a: dict, program: CircuitProgram, arity: dict) -> int:
    widest = max(arity[a["a"]], arity[a["b"]]) - 1
    return 1 << widest.bit_length()


OPS = {
    "prepare": OpSpec({"target": PREPARED},
                      lambda state, a, bound, ctx: add_subsystem(state, *bound),
                      optional={"level": INTEGER, "pm": TEXT, "uniform": FLAG,
                                "state": AMPLITUDES}, bind=_prepared),
    "photon_h": OpSpec({"target": PHOTON}, _gate("photon_h"), census="h_optical"),
    "photon_x": OpSpec({"target": PHOTON}, _gate("photon_x")),
    "photon_z": OpSpec({"target": PHOTON}, _gate("photon_z")),
    "particle_h": OpSpec({"target": PARTICLE}, _gate("particle_h"),
                         census="h_particle"),
    "particle_x": OpSpec({"target": QUBIT_PARTICLE}, _gate("particle_x")),
    "particle_z": OpSpec({"target": QUBIT_PARTICLE}, _gate("particle_z")),
    "qicz": OpSpec(
        {"photon": PHOTON, "particle": QUBIT_PARTICLE},
        lambda state, a, _, ctx: qicz(state, a["photon"], a["particle"], ctx.params),
        census="qicz"),
    "qicz_multi": OpSpec(
        {"photon": PHOTON, "particles": PARTICLES},
        lambda state, a, _, ctx: qicz_multi(state, a["photon"], a["particles"],
                                            ctx.params, blocking=a.get("blocking")),
        optional={"blocking": BLOCKING}, census="qicz", bind=_wiring_fits),
    "measure": OpSpec({"target": MEASURED, "basis": BASIS, "bit": WRITE}, None,
                      census=MEASUREMENT_BASES, bind=_failure_label),
    "cx": OpSpec({"bit": CONTROL, "target": PHOTON_OR_QUBIT}, _controlled("cx"),
                 census="cc"),
    "cz": OpSpec({"bit": CONTROL, "target": PHOTON_OR_QUBIT}, _controlled("cz"),
                 census="cc"),
    "cphase": OpSpec(
        {"key": READ, "target": PHOTON, "coeff": NUMBER},
        lambda state, a, _, ctx: gates.classically_controlled_phase(
            state, _recorded(state, ctx, a["key"]), a["target"], a["coeff"]),
        census="cc", bind=_phase_fits),
    "xor": OpSpec({"a": READ, "b": READ, "out": WRITE}, _xor, bind=_xor_values),
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
    # the component class the gate census counts this instruction in, and the
    # ImperfectionProfile field whose Bernoulli draw it consumes (None for a
    # perfect instruction); both set once the arguments check out
    census: str | None = field(init=False, repr=False, compare=False)
    charge: str | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spec = OPS.get(self.op) if isinstance(self.op, str) else None
        if spec is None:
            raise ValueError(f"unknown op {self.op!r}")
        for name in self.args:
            if name not in spec.schema:
                raise ValueError(f"{self.op} takes no argument {name!r}")
        for name, kind in spec.schema.items():
            if name not in self.args:
                if name in spec.args:
                    raise ValueError(f"{self.op} needs argument {name!r}")
            elif not kind.check(self.args[name]):
                raise ValueError(f"{self.op} argument {name!r} must be "
                                 f"{kind.describe}, got {self.args[name]!r}")
        census = spec.census
        if isinstance(census, dict):
            census = census.get(self.args["basis"])
        object.__setattr__(self, "census", census)
        object.__setattr__(self, "charge", gates.CHARGED.get(census))


@dataclass(frozen=True)
class CircuitProgram:
    subsystems: tuple[SubsystemSpec, ...]
    bits: tuple[str, ...]
    instructions: tuple[Instruction, ...]
    # per instruction, what validation bound for it (see `validate_program`);
    # every walk reads its prepare vectors, failure labels and batch sizes here
    _plan: tuple = field(init=False, repr=False, compare=False)
    # the outcome tree `run` keeps for its last params
    _outcome_tree: _OutcomeTree | None = field(default=None, init=False, repr=False,
                                               compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_plan", validate_program(self))

    def __getstate__(self):
        # the tree caches this process's runs; a copy or a pickle starts without
        return {**self.__dict__, "_outcome_tree": None}

    def spec(self, name: str) -> SubsystemSpec:
        for s in self.subsystems:
            if s.name == name:
                return s
        raise KeyError(f"undeclared subsystem {name!r}")


def validate_program(program: CircuitProgram) -> tuple:
    """Static checks across subsystems, bits and instructions (each
    `SubsystemSpec` checks its own name, kind and level count): unique
    subsystem names of at most `MAX_SUBSYSTEM_DIM` levels, unique string
    bit names free of `BIT_NAME_BANS`, declared names only,
    prepare-before-use, no use after measurement, classical values written
    before read, gate subsystems that fit (through `state.expect`, the
    engine steps' own guard), cx/cz only on bits that can hold nothing but
    0 and 1, each row's `bind` (qicz_multi wiring, prepared vectors,
    measurement bases that exist and fit through `state.basis_outcomes`,
    finite cphase phases), and states within `MAX_AMPLITUDES` whose
    prepared vectors keep their norm^2 within 1 + `ATOL`.  An error about
    one subsystem or bit starts `subsystems[i]:` or `bits[i]:`, and any
    error raised while an instruction is checked starts `instructions[i]:`,
    added by the loop's one handler.

    Returns the program's plan, one entry per instruction: what its row's
    `bind` returned (None for a row without one), a measure's paired with
    the batch size of the segment it opens.  That size keeps a batch's
    stacked state within `MAX_AMPLITUDES` at the segment's largest, where
    the next measurement or the end finds it, since only a prepare grows
    the state; a segment of fewer than two instructions runs one branch at
    a time, because a stack costs a state to build and, at the end, one
    state per branch to split it into leaves."""
    specs: dict[str, SubsystemSpec] = {}
    for i, s in enumerate(program.subsystems):
        if s.name in specs:
            raise ValueError(f"subsystems[{i}]: duplicate subsystem name {s.name!r}")
        if s.dim > MAX_SUBSYSTEM_DIM:
            raise ValueError(f"subsystems[{i}]: {s.name!r} would have {s.dim} levels; "
                             f"the engine allows at most {MAX_SUBSYSTEM_DIM}")
        specs[s.name] = s
    bits: set[str] = set()
    for i, bit in enumerate(program.bits):
        if not isinstance(bit, str):
            raise ValueError(f"bits[{i}]: a bit name must be a string, got {bit!r}")
        if bit in bits:
            raise ValueError(f"bits[{i}]: duplicate bit name {bit!r}")
        if not BIT_NAME_BANS.isdisjoint(bit):
            raise ValueError(f"bits[{i}]: {bit!r} may not hold , ; = \" or a line break")
        bits.add(bit)
    live: set[str] = set()
    gone: set[str] = set()
    amplitudes = 1  # held by the live state
    # the live state's norm^2 as its prepared vectors scale it; a kept
    # measurement branch is renormalized, so each measurement restarts it
    scale = 1.0
    arity: dict[str, int] = {}  # bit -> number of values it can hold
    plan: list = []
    # (position, live amplitudes) where each segment ends: at each measure,
    # before it shrinks the state, and at the end
    ends: list[tuple[int, int]] = []
    for pos, instr in enumerate(program.instructions):
        try:
            row = OPS[instr.op]
            written = None
            for arg, kind in row.roles:
                role, value = kind.role, instr.args[arg]
                for name in [value] if isinstance(value, str) else value:
                    if role in ("read", "control", "write"):
                        if name not in bits:
                            raise ValueError(f"undeclared bit {name!r}")
                        if role == "write":
                            written = name
                        elif name not in arity:
                            raise ValueError(f"bit {name!r} read before write")
                        elif role == "control" and arity[name] > 2:
                            raise ValueError(
                                f"{instr.op} needs a 0/1 control, but bit {name!r} can "
                                f"hold 0..{arity[name] - 1}; use cphase for integer outcomes")
                    elif name not in specs:
                        raise ValueError(f"undeclared subsystem {name!r}")
                    elif role == "prepare":
                        if name in live:
                            raise ValueError(f"{name!r} prepared twice")
                        if name in gone:
                            raise ValueError(f"{name!r} reused after measurement")
                        live.add(name)
                        amplitudes *= specs[name].dim
                        if amplitudes > MAX_AMPLITUDES:
                            raise ValueError(
                                f"preparing {name!r} makes a state of {amplitudes} "
                                f"amplitudes; the engine allows at most {MAX_AMPLITUDES}")
                    elif name in gone:
                        raise ValueError(f"{name!r} used after measurement")
                    elif name not in live:
                        raise ValueError(f"{name!r} used before prepare")
                    elif role == "measure":
                        ends.append((pos, amplitudes))
                        live.remove(name)
                        gone.add(name)
                        amplitudes //= specs[name].dim
                        scale = 1.0
                    elif kind.needs:
                        expect(specs[name], kind.needs, f"{instr.op} argument {arg!r}")
            bound = row.bind and row.bind(instr.args, program, arity)
            if written:  # a measure's basis unknown or misfit raised in its bind
                arity[written] = bound
            if instr.op == "prepare":  # its subsystem and vector scale the norm^2
                spec, vec = bound
                scale *= float(np.vdot(vec, vec).real)
                if scale > 1 + ATOL:
                    raise ValueError(f"preparing {spec.name!r} makes a "
                                     f"state of norm^2 {scale!r}, above 1 + {ATOL:g}")
            plan.append(bound)
        except ValueError as exc:
            raise ValueError(f"instructions[{pos}]: {exc}") from None
    ends.append((len(plan), amplitudes))
    # each measure opens the segment that ends where the next one does
    for (opened, _), (end, peak) in zip(ends, ends[1:]):
        plan[opened] = (plan[opened], MAX_AMPLITUDES // peak if end - opened > 2 else 1)
    return tuple(plan)


@dataclass
class RunResult:
    final_state: StateVector
    classical: dict[str, int]
    success_probability: float
    failed: bool
    branch_weight: float = 1.0  # product of measurement branch weights


# What a kept outcome tree may cost, roughly: the bytes of the amplitudes
# its segments hold plus `_ENTRY_BYTES` per segment and per charged entry.
# Runs past it walk fresh segments and keep none, so memory stays bounded
# however many distinct outcome paths a program has.
_TREE_BYTES = 32 * 2 ** 20
_ENTRY_BYTES = 512


@dataclass(eq=False)
class _Segment:
    """One deterministic stretch of a walk for a batch of branches: from the
    program start or one measurement up to the next measurement or the end.

    `weight` and `classical` list per branch the product of the branch
    weights that lead here and the classical record there.  A walk that
    ends here has its results in `leaves`: one per branch at the end of the
    program, each state a view of a stacked state, or the one failed result
    of a failure outcome or a measurement that finds no weight.  `charged`
    lists the charged instructions passed, in order, as (profile field,
    layout a failed draw zeroes, classical records at that point).  A
    measurement leaves its index (`measured`) and per branch its
    `branch_all` list; in a sampled walk, whose segments hold one branch,
    `children` maps the index of each outcome taken so far to the segment
    that follows it, and `table` holds the measurement's draw table
    (`_sampled`)."""

    weight: list
    classical: list = field(default_factory=list)
    charged: list = field(default_factory=list)
    leaves: list = field(default_factory=list)  # RunResult per branch
    measured: int | None = None
    branches: list = field(default_factory=list)
    children: dict = field(default_factory=dict)
    table: tuple | None = None

    def nbytes(self) -> int:
        """What keeping this segment costs, as `_TREE_BYTES` counts it."""
        held = sum(post.amps.nbytes for kept in self.branches for _, post, _ in kept)
        held += sum(leaf.final_state.amps.nbytes for leaf in self.leaves)
        return held + _ENTRY_BYTES * (1 + len(self.charged))


@dataclass(eq=False)
class _OutcomeTree:
    """The segments `run` has kept for one `params`, and their cost."""

    params: QiParams
    root: _Segment
    nbytes: int


def _zeroed(layout: tuple) -> StateVector:
    return StateVector(layout, np.zeros(math.prod(s.dim for s in layout),
                                        dtype=np.complex128))


def _failed(state: StateVector, record: dict, weight: float) -> RunResult:
    """A heralded failure: nothing of it counts as success."""
    return RunResult(state, dict(record), 0.0, True, weight)


def _segment(program: CircuitProgram, params: QiParams, classical: list,
             weight: list, state: StateVector, pos: int) -> _Segment:
    """The one instruction loop: run the actions from instruction `pos` up
    to the next measurement or the end on `state`, one branch or a batch,
    writing into the per-branch records `classical`.  A branch that ends
    the program succeeds with its weight times its final norm^2.  An
    action's exception propagates and, as with `functools.cache`, nothing
    keeps it, so every walk that reaches this stretch raises it."""
    seg = _Segment(weight, classical=classical)
    ctx = _Context(params, classical)
    plan = program._plan
    for i in range(pos, len(program.instructions)):
        instr = program.instructions[i]
        if instr.charge:
            seg.charged.append((instr.charge, state.layout, list(classical)))
        action = OPS[instr.op].action
        if action is None:
            found = branch_all(state, instr.args["target"], instr.args["basis"])
            seg.branches = found if state.batch is not None else [found]
            seg.measured = i
            if not any(seg.branches):  # only a one-branch run reads this end
                seg.leaves = [_failed(_zeroed(state.layout), classical[0], weight[0])]
            break
        state = action(state, instr.args, plan[i], ctx)
    else:
        views = map(state.branch, range(state.batch)) if state.batch else [state]
        seg.leaves = [RunResult(view, dict(record), w * norm_sq(view), False, w)
                      for view, record, w in zip(views, classical, weight)]
    return seg


def _root(program: CircuitProgram, params: QiParams) -> _Segment:
    return _segment(program, params, [{}], [1.0],
                    StateVector((), np.ones((), dtype=np.complex128)), 0)


def _sampled(seg: _Segment) -> _Segment:
    """`seg`, a one-branch segment of a sampled walk, with the draw table
    of the measurement ending it stored, if that measurement found
    weight."""
    if any(seg.branches):
        seg.table = draw_table(seg.branches[0])
    return seg


def _outcomes(program: CircuitProgram, seg: _Segment) -> list[list[tuple]]:
    """Per branch of `seg`, one entry per outcome of the measurement ending
    it: the record with the bit written, the branch weight times the
    outcome's probability, the post-measurement state, and whether it is
    the failure outcome, which ends the walk; validation bound its label."""
    bit = program.instructions[seg.measured].args["bit"]
    failure, _ = program._plan[seg.measured]
    return [[({**record, bit: outcome}, weight * prob, post, outcome == failure)
             for outcome, post, prob in found]
            for found, record, weight in zip(seg.branches, seg.classical, seg.weight)]


def run(program: CircuitProgram, params: QiParams | None = None,
        rng: np.random.Generator | None = None,
        profile: gates.ImperfectionProfile | None = None) -> RunResult:
    """Single sampled trajectory.  Measurement outcomes are drawn with Born
    probabilities; with a profile, each charged instruction draws one
    uniform from `rng` before it acts, and a failed draw zeroes the state
    and heralds the run failed.  A measurement that finds no weight left
    ends the run the same way, with nothing drawn for it.

    The segments between measurements are deterministic, so the program
    keeps the tree of those it has run for the last `params`, up to
    `_TREE_BYTES`.  Each kept measurement holds its draw table and each kept
    end its result, so a later run along a kept path is its draws (one
    uniform per charged instruction and per measurement, and one `bisect`
    in the table) plus one copy of the end's amplitudes and record, which
    builds no state: `StateVector.copy` does not check the norm again.
    A run whose path reaches a stretch where an action raises raises it,
    whatever its draws.  Two runs at once may both build a segment; either
    copy gives the same results."""
    params = params or QiParams()
    rng = rng or np.random.default_rng(0)
    tree = program._outcome_tree
    if tree is None or (tree.params is not params and tree.params != params):
        root = _sampled(_root(program, params))
        tree = _OutcomeTree(params, root, root.nbytes())
        object.__setattr__(program, "_outcome_tree", tree)
    seg, kept = tree.root, True
    while True:
        if profile is not None:
            for charge, layout, classical in seg.charged:
                if rng.random() >= getattr(profile, charge):
                    return _failed(_zeroed(layout), classical[0], seg.weight[0])
        if seg.table is None:  # the walk ends here; the tree keeps its leaf
            leaf = seg.leaves[0]
            return RunResult(leaf.final_state.copy(), dict(leaf.classical),
                             leaf.success_probability, leaf.failed, leaf.branch_weight)
        index = sample_branch(seg.table, rng)
        child = seg.children.get(index)
        if child is None:
            record, weight, post, failed = _outcomes(program, seg)[0][index]
            child = _sampled(
                _Segment([weight], leaves=[_failed(post, record, weight)]) if failed else
                _segment(program, params, [record], [weight], post, seg.measured + 1))
            cost = child.nbytes()
            kept = kept and tree.nbytes + cost <= _TREE_BYTES
            if kept:
                tree.nbytes += cost
                seg.children[index] = child
        seg = child


def run_all_branches(program: CircuitProgram,
                     params: QiParams | None = None) -> list[RunResult]:
    """Exhaustive enumeration of every measurement branch (ideal components
    only).  Branches appear in depth-first outcome order; weights plus the
    pruned deficit account for all probability.

    The walk stacks sibling branches: the kept non-failure outcomes of every
    branch of a batch at one measurement form the next batches, and the
    instructions up to the next measurement run once per batch.  A batch
    holds the number of branches that validation bound to the measurement
    opening it (`validate_program`): as many as keep its stacked state
    within `MAX_AMPLITUDES` amplitudes up to the next measurement, or one
    when fewer than two instructions come before that measurement.
    Batches are walked depth first, so the walk holds a few batches per
    measurement level, not a whole level.  A branch that ends the program
    keeps its segment's leaf, a view of a stacked state.  Leaves are sorted
    by their path of kept-outcome indices, which is depth-first order.
    Each call walks a fresh tree and keeps none of it."""
    params = params or QiParams()
    leaves = []  # (kept-outcome indices from the root, result)
    # batches still to run, the next one last: (their (path, record, weight,
    # plain state) entries, first instruction)
    todo = []
    seg, paths = _root(program, params), [()]
    while True:
        if seg.measured is None:
            leaves += zip(paths, seg.leaves)
        else:
            kept = []  # (path, record, weight, state) per kept non-failure outcome
            for path, entries in zip(paths, _outcomes(program, seg)):
                for index, (record, w, post, failed) in enumerate(entries):
                    if failed:
                        leaves.append((path + (index,), _failed(post, record, w)))
                    else:
                        kept.append((path + (index,), record, w, post))
            _, per_batch = program._plan[seg.measured]
            todo += [(kept[lo:lo + per_batch], seg.measured + 1)
                     for lo in reversed(range(0, len(kept), per_batch))]
        if not todo:
            break
        batch, pos = todo.pop()
        paths, classical, weight, posts = map(list, zip(*batch))
        state = posts[0] if len(posts) == 1 else stack_branches(posts)
        seg = _segment(program, params, classical, weight, state, pos)
    leaves.sort(key=lambda leaf: leaf[0])
    return [result for _, result in leaves]


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
    for ph_name, wired in interferometers:
        names = [w[0] for w in wired]
        blocking = [[int(w[1])] if isinstance(w[1], (int, np.integer)) else sorted(w[1])
                    for w in wired]
        instructions.append(_ins("qicz_multi", photon=ph_name, particles=names,
                                 blocking=blocking))
    return CircuitProgram(tuple(subsystems), (), tuple(instructions))


def w_state_generator(m: int) -> CircuitProgram:
    """Single-excitation entangler: one m-position particle phase-marks one
    of m photons, the particle's Fourier transform erases which-one
    information, and outcome-controlled phases undo the leftover twist."""
    if not _is_int(m):
        raise ValueError(f"the photon count must be an integer, got {m!r}")
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


def _cz_to_cnot(photon_name: str, particle_name: str):
    """The interrogation CZ made a CNOT onto the photon: Hadamards on the
    photon before and after."""
    return [_ins("photon_h", target=photon_name),
            _ins("qicz", photon=photon_name, particle=particle_name),
            _ins("photon_h", target=photon_name)]


def cnot_circuit(family: str, control=(1, 0), target=(1, 0)) -> CircuitProgram:
    """A CNOT(control -> target) realization from the given family; every
    measurement branch equals the ideal CNOT output after corrections.

    The memory family teleports both photons through particle memories with
    a CZ coupling between the write stages, and merges its two control-line
    Z corrections into one by a classical XOR of their bits.  The
    half-memory families teleport one photon; the direct families measure
    only the shared particle.
    """
    if family == MEMORY:
        photons, particles = ("c", "t", "tp", "cp"), ("mt", "mc")
        bits = ("a_t", "a_c", "c_t", "c_c", "zc")
        body = [
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
            _ins("xor", a="a_c", b="a_t", out="zc"),
            _ins("cz", bit="zc", target="cp"),
        ]
    elif family == HALF_MEMORY_KEEP_CONTROL:
        photons, particles, bits = ("c", "t", "tp"), ("m",), ("a", "cm")
        body = [
            _ins("prepare", target="m", pm="+"),
            _ins("qicz", photon="c", particle="m"),
            *memory_write("t", "m", "a"),
            *memory_read("m", "tp", "cm", "a"),
            _ins("cz", bit="a", target="c"),
        ]
    elif family == HALF_MEMORY_KEEP_TARGET:
        photons, particles, bits = ("c", "t", "cp"), ("m",), ("a", "cm")
        body = [
            _ins("prepare", target="m", pm="+"),
            *memory_write("c", "m", "a"),
            _ins("particle_h", target="m"),
            *_cz_to_cnot("t", "m"),
            _ins("particle_h", target="m"),
            *memory_read("m", "cp", "cm", "a"),
        ]
    elif family == DIRECT_CX:
        photons, particles, bits = ("c", "t"), ("m",), ("d",)
        body = [
            _ins("prepare", target="m", pm="+"),
            *_cz_to_cnot("t", "m"),
            _ins("particle_h", target="m"),
            _ins("qicz", photon="c", particle="m"),
            _ins("measure", target="m", basis=PARTICLE_PM, bit="d"),
            _ins("cx", bit="d", target="t"),
        ]
    elif family == DIRECT_CZ:
        photons, particles, bits = ("c", "t"), ("m",), ("d",)
        body = [
            _ins("prepare", target="m", pm="+"),
            _ins("qicz", photon="c", particle="m"),
            _ins("particle_h", target="m"),
            *_cz_to_cnot("t", "m"),
            _ins("measure", target="m", basis=PARTICLE_PM, bit="d"),
            _ins("cz", bit="d", target="c"),
        ]
    else:
        raise ValueError(f"unknown family {family!r}")
    return CircuitProgram(
        subsystems=(*map(photon, photons), *map(particle, particles)),
        bits=bits,
        instructions=(_ins("prepare", target="c", state=_vec_arg(control)),
                      _ins("prepare", target="t", state=_vec_arg(target)), *body),
    )


_UNIFORM = np.array([1, 1]) / np.sqrt(2)

# demo name -> builder of one shipped, self-contained example program
DEMOS: dict[str, Callable[[], CircuitProgram]] = {
    "bell": bell_generator,
    "qicz": lambda: configurable_gate(
        photons=[("p", (0, 1))],
        particles=[("b", 2, (1, 0, 0))],
        interferometers=[("p", [("b", [0])])],
    ),
    "toffoli": lambda: toffoli(control1=(0, 1, 0), control2=(0, 1, 0), target=(1, 0)),
    **{f"wstate-{m}": partial(w_state_generator, m) for m in (2, 3, 4)},
    "memory": lambda: memory_roundtrip(psi=_UNIFORM, sign="+"),
    **{f"cnot-{family}": partial(cnot_circuit, family, control=_UNIFORM, target=(1, 0))
       for family in CNOT_FAMILIES},
}


def demo_programs() -> dict[str, CircuitProgram]:
    """The shipped, self-contained example programs, built afresh."""
    return {name: build() for name, build in DEMOS.items()}
