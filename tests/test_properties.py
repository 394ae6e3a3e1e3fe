"""Properties over generated inputs: random valid programs, run by the
engine against its own branch enumeration, its memoized runs and the
brute-force oracle; and arbitrary circuit documents sent through the CLI."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from zenosim import cli, oracle
from zenosim.circuits import DEMOS, OPS, CircuitProgram, Instruction, run, run_all_branches
from zenosim.gates import ImperfectionProfile
from zenosim.interrogation import QiParams
from zenosim.state import (
    PARTICLE_COMPUTATIONAL,
    PARTICLE_PM,
    PHOTON_COMPUTATIONAL,
    QUDIT_POSITION,
    particle,
    photon,
)

from helpers import rounding_bounds

IDEAL = QiParams(cycles=None)
FINITE = QiParams(cycles=3, absorb_prob=0.8, cycle_loss=1e-3)
PROFILE = ImperfectionProfile(p=0.9, q=0.85, r=0.9, s=0.8, eta=0.9)
# the live dimension stays below oracle.DIMENSION_CAP, and the particles of
# one interferometer below a size whose effective map is quick to extract
LIVE_CAP = 400
INTERFEROMETER_CAP = 27

# ---------------------------------------------------------------------------
# random valid programs

_unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _amplitudes(draw, size: int, logical: int):
    """A normalized vector of `size` amplitudes as [re, im] pairs, with
    weight on its first `logical` entries."""
    vec = np.array([complex(draw(_unit), draw(_unit)) for _ in range(size)])
    if np.linalg.norm(vec[:logical]) < 0.1:
        vec[:logical] = np.eye(logical)[draw(st.integers(0, logical - 1))]
    return [[float(v.real), float(v.imag)] for v in vec / np.linalg.norm(vec)]


@st.composite
def valid_programs(draw):
    """Photons and 2-4-position particles, prepared in basis, superposed
    (possibly with weight on failure levels), +/- or uniform states; every gate; qicz and qicz_multi with blocking
    sets; measurements in every basis; cx/cz on 0/1 bits, cphase on any
    bit, and xor.  A measurement or an xor writes a fresh bit or
    sometimes one already written, so distinct outcome paths may end in
    the same classical record."""
    specs = [photon(f"p{i}") for i in range(draw(st.integers(1, 3)))]
    specs += [particle(f"b{i}", positions=d)
              for i, d in enumerate(draw(st.lists(st.integers(2, 4), max_size=3)))]
    dims = {s.name: s.dim for s in specs}
    unprepared, live = list(specs), []
    arity: dict[str, int] = {}  # bit -> values it can hold
    instructions = []

    def live_dim():
        return math.prod(dims[s.name] for s in live)

    def new_bit(values):
        if arity and draw(st.integers(0, 2)):
            name = draw(st.sampled_from(sorted(arity)))
        else:
            name = f"m{len(arity)}"
        arity[name] = values  # what it can hold from here on
        return name

    for _ in range(draw(st.integers(1, 16))):
        photons = [s.name for s in live if s.kind == "photon"]
        particles = [s for s in live if s.kind == "particle"]
        two = [s.name for s in particles if s.positions() == 2]
        binary = [b for b, n in arity.items() if n == 2]
        ready = [s for s in unprepared if live_dim() * s.dim <= LIVE_CAP]
        # repeated entries weight the draw towards interrogations, feed-forward
        # and preparing enough subsystems to interrogate; hypothesis draws the
        # first and the last entry more often than the others
        choices = ["prepare"] * 3 if ready else []
        if photons:
            choices += ["qicz"] * 3 if two else []
            choices += ["qicz_multi"] * 3 if particles else ["qicz_multi"]
        choices += ["measure"] * 2 if live else []
        if binary and (photons or two):
            choices += ["cx", "cx", "cz", "cz"]
        if arity:
            choices += ["cphase", "xor"] if photons else ["xor"]
        if particles:
            choices += ["particle_h"]
        if two:
            choices += ["particle_x", "particle_z"]
        if photons:
            choices += ["photon_x", "photon_z", "photon_h", "photon_h"]
        if not (live or ready):
            break
        op = draw(st.sampled_from(choices))
        if op == "prepare":
            spec = draw(st.sampled_from(ready))
            unprepared.remove(spec)
            live.append(spec)
            args = {"target": spec.name}
            if spec.kind == "photon":
                form = draw(st.sampled_from(["level", "state"]))
                size = 2
            else:
                size = spec.positions()
                form = draw(st.sampled_from(
                    ["level", "state", "uniform"] + (["pm"] if size == 2 else [])))
            if form == "level":
                args["level"] = draw(st.integers(0, size - 1))
            elif form == "state":
                # a full-length vector also weights the failure levels:
                # photon |1V> and sink, or the particle's exploded level
                full = draw(st.booleans())
                args["state"] = draw(_amplitudes(spec.dim if full else size, size))
            elif form == "uniform":
                args["uniform"] = True
            else:
                args["pm"] = draw(st.sampled_from("+-"))
        elif op in ("photon_h", "photon_x", "photon_z"):
            args = {"target": draw(st.sampled_from(photons))}
        elif op == "particle_h":
            args = {"target": draw(st.sampled_from(particles)).name}
        elif op in ("particle_x", "particle_z"):
            args = {"target": draw(st.sampled_from(two))}
        elif op == "qicz":
            args = {"photon": draw(st.sampled_from(photons)),
                    "particle": draw(st.sampled_from(two))}
        elif op == "qicz_multi":
            wired = draw(st.lists(st.sampled_from(particles), unique=True, min_size=1, max_size=3)
                         .filter(lambda ps: math.prod(p.dim for p in ps)
                                 <= INTERFEROMETER_CAP)) if particles else []
            args = {"photon": draw(st.sampled_from(photons)),
                    "particles": [p.name for p in wired]}
            if draw(st.booleans()):
                args["blocking"] = [
                    draw(st.integers(0, p.positions() - 1) | st.lists(
                        st.integers(0, p.positions() - 1), unique=True).map(sorted))
                    for p in wired]
        elif op == "measure":
            spec = draw(st.sampled_from(live))
            live.remove(spec)
            if spec.kind == "photon":
                basis, values = PHOTON_COMPUTATIONAL, 2
            else:
                basis = draw(st.sampled_from(
                    [PARTICLE_COMPUTATIONAL, QUDIT_POSITION]
                    + ([PARTICLE_PM] if spec.positions() == 2 else [])))
                values = 2 if basis == PARTICLE_PM else spec.positions()
            args = {"target": spec.name, "basis": basis, "bit": new_bit(values)}
        elif op in ("cx", "cz"):
            args = {"bit": draw(st.sampled_from(binary)),
                    "target": draw(st.sampled_from(photons + two))}
        elif op == "cphase":
            args = {"key": draw(st.sampled_from(sorted(arity))),
                    "target": draw(st.sampled_from(photons)),
                    "coeff": draw(st.floats(-math.pi, math.pi))}
        else:  # xor
            a, b = draw(st.sampled_from(sorted(arity))), draw(st.sampled_from(sorted(arity)))
            width = max(arity[a], arity[b]) - 1
            args = {"a": a, "b": b, "out": new_bit(1 << width.bit_length())}
        instructions.append(Instruction(op, args))
    return CircuitProgram(tuple(specs), tuple(arity), tuple(instructions))


def _fresh(program: CircuitProgram) -> CircuitProgram:
    return CircuitProgram(program.subsystems, program.bits, program.instructions)


def _key(result) -> tuple:
    return tuple(sorted(result.classical.items())), result.failed


def _record(result) -> tuple:
    return (_key(result), result.success_probability, result.branch_weight,
            result.final_state.layout, result.final_state.amps.tobytes())


# a program that writes one bit twice may end several leaves in one record,
# so a sampled run must equal one of the leaves that share its key
@settings(max_examples=150, deadline=None)
@given(program=valid_programs(), seed=st.integers(0, 2 ** 32 - 1))
def test_sampled_runs_are_enumerated_branches(program, seed):
    rng = np.random.default_rng(seed)
    for params in (IDEAL, FINITE):
        by_key = {}
        for b in run_all_branches(program, params):
            by_key.setdefault(_key(b), []).append(b)
        for _ in range(4):
            sampled = run(program, params, rng)
            assert any(sampled.branch_weight == leaf.branch_weight
                       and sampled.final_state.layout == leaf.final_state.layout
                       and np.array_equal(sampled.final_state.amps, leaf.final_state.amps)
                       for leaf in by_key[_key(sampled)])
    # one program object across switching params and a profile, against a
    # newly built program for every run
    schedule = [IDEAL, IDEAL, FINITE, FINITE, IDEAL, FINITE]
    kept, fresh = np.random.default_rng(seed), np.random.default_rng(seed)
    program = _fresh(program)
    assert ([_record(run(program, p, kept, PROFILE)) for p in schedule]
            == [_record(run(_fresh(program), p, fresh, PROFILE)) for p in schedule])
    assert kept.bit_generator.state == fresh.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(program=valid_programs())
def test_engine_matches_oracle(program):
    for params in (IDEAL, FINITE):
        assert oracle.compare(program, params) <= rounding_bounds(program).compare


# ---------------------------------------------------------------------------
# arbitrary circuit documents through the CLI

_NAMES = ["p", "q", "b", "m", "n"]
_BASES = [PHOTON_COMPUTATIONAL, PARTICLE_PM, PARTICLE_COMPUTATIONAL, QUDIT_POSITION]
_ARG_NAMES = sorted({name for spec in OPS.values() for name in spec.schema})

# integers are unbounded: the validator must turn a huge `dim`, `level`,
# position or coefficient into an error line before anything is allocated
_json_leaves = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=5) | st.sampled_from(_NAMES + _BASES))
_json = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5) | st.sampled_from(_ARG_NAMES), inner,
                      max_size=4),
    max_leaves=10)

_arg_values = (
    st.sampled_from(_NAMES + _BASES) | st.integers(-1, 4) | st.floats(-4, 4)
    | st.lists(st.sampled_from(_NAMES), max_size=3)
    | st.lists(st.integers(0, 3) | st.lists(st.integers(0, 3), max_size=3), max_size=3)
    | st.lists(st.lists(st.floats(-1, 1), min_size=2, max_size=2), max_size=5)
    | _json)

_circuit_docs = st.fixed_dictionaries({
    "version": st.just("1") | _json,
    "subsystems": st.lists(st.fixed_dictionaries(
        {"name": st.sampled_from(_NAMES) | _json,
         "kind": st.sampled_from(["photon", "particle"]) | _json},
        optional={"dim": st.integers(-1, 5) | st.integers() | _json}), max_size=4) | _json,
    "bits": st.lists(st.sampled_from(_NAMES) | _json, max_size=4) | _json,
    "instructions": st.lists(st.builds(
        lambda op, args: {"op": op, **args},
        st.sampled_from(sorted(OPS)) | _json,
        st.dictionaries(st.sampled_from(_ARG_NAMES), _arg_values, max_size=5)),
        max_size=8) | _json,
})


@st.composite
def _mutated_demo_docs(draw):
    """A shipped demo's circuit file with up to three values replaced by
    arbitrary JSON or deleted, or fields added next to them."""
    doc = cli.program_to_doc(DEMOS[draw(st.sampled_from(sorted(DEMOS)))]())
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
            elif isinstance(node, dict) and draw(st.booleans()):
                if draw(st.booleans()):
                    del node[key]
                else:
                    node[draw(st.sampled_from(["dim", "extra"] + _ARG_NAMES))] = draw(_json)
                break
            else:
                node[key] = draw(_json)
                break
    return doc


def _cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _key_paths(node, prefix=()) -> set:
    """Every path of keys and list indices into a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    paths = {prefix}
    for key, child in items:
        paths |= _key_paths(child, prefix + (key,))
    return paths


@settings(max_examples=150, deadline=None)
@given(doc=_json | _circuit_docs | _mutated_demo_docs(),
       flags=st.sampled_from([["--ideal"],
                              ["--cycles", "3", "--absorb", "0.9", "--loss", "0.001"]]))
def test_cli_survives_any_document(doc, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "circuit.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            program = cli.load_program(path)
        except ValueError:
            program = None
        else:
            # a file that loads was read whole: writing it back keeps every
            # key path it had
            assert _key_paths(doc) <= _key_paths(cli.program_to_doc(program))
        for argv in (["simulate", path], ["simulate", path, "--branches", "sample"],
                     ["oracle-check", path]):
            code, out, err = _cli(argv + flags)
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            if code == 1:
                assert out == ""
                assert err.startswith("zenosim: error:") and err.count("\n") == 1
                # a file that loads never fails to run
                assert program is None or argv[0] != "simulate", err
