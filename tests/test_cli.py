"""End-to-end command-line checks.  They call `main` in this process; a
subprocess runs `python -m zenosim.cli` only where a fresh process is what
the check is about: the entry point itself (whose calls must print what
`main` prints here), identical bytes from two fresh processes, and a walk
deeper than the recursion limit."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zenosim
from zenosim import circuits, gates, state as engine_state
from zenosim.analysis import yield_formula
from zenosim.cli import (
    _csv_line,
    _simulate_json,
    build_parser,
    load_program,
    main,
    program_from_doc,
    program_to_doc,
    serialize_program,
)
from zenosim.circuits import (
    DEMOS,
    RunResult,
    bell_generator,
    cnot_circuit,
    w_state_generator,
)
from zenosim.gates import ImperfectionProfile
from zenosim.interrogation import QiParams
from zenosim.state import StateVector

from test_circuits import _GATE_MISFITS, _QICZ_MULTI_MISFITS
from test_oracle import _mutated_apply_local

CLI = [sys.executable, "-m", "zenosim.cli"]
# the child imports the zenosim this process imports, installed or not
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(zenosim.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def run_fresh(*argv):
    """`python -m zenosim.cli` in a fresh process."""
    return subprocess.run(CLI + list(argv), capture_output=True, text=True,
                          env=_ENV, timeout=300)


def run_main(*argv):
    """`main` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(arg) for arg in argv])
        except SystemExit as exc:  # argparse ends a usage error this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_cli(*argv):
    """`run_main` as a finished process: returncode, stdout, stderr."""
    return subprocess.CompletedProcess(argv, *run_main(*argv))


def test_census_strings():
    expected = {
        "memory": "h_optical=4,qicz=5,cc=4,h_particle=0,detectors=2",
        "half-memory-keep-control": "h_optical=2,qicz=3,cc=3,h_particle=0,detectors=1",
        "half-memory-keep-target": "h_optical=4,qicz=3,cc=2,h_particle=2,detectors=1",
        "direct-cx": "h_optical=2,qicz=2,cc=1,h_particle=1,detectors=0",
        "direct-cz": "h_optical=2,qicz=2,cc=1,h_particle=1,detectors=0",
    }
    for family, line in expected.items():
        proc = run_cli("census", "--family", family)
        assert proc.returncode == 0
        assert proc.stdout.strip() == line


def test_census_half_memory_alias():
    alias = run_cli("census", "--family", "half-memory")
    canonical = run_cli("census", "--family", "half-memory-keep-control")
    assert alias.returncode == 0
    assert alias.stdout == canonical.stdout


def test_simulate_bell_json():
    proc = run_cli("simulate", "--demo", "bell", "--ideal")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["source"] == "bell"
    assert doc["params"]["cycles"] is None
    assert len(doc["branches"]) == 2
    assert doc["success_probability"] == pytest.approx(1.0, abs=1e-9)
    for branch in doc["branches"]:
        assert branch["failed"] is False
        assert branch["branch_weight"] == pytest.approx(0.5, abs=1e-12)
        assert branch["state"]["subsystems"] == ["p1", "p2"]
        assert branch["state"]["dims"] == [4, 4]
        assert len(branch["state"]["amplitudes"]) == 16


def test_simulate_qicz_demo_survival():
    proc = run_cli("simulate", "--demo", "qicz", "--cycles", "100")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert f"{doc['success_probability']:.11f}" == "0.90600334297"


def _empty_program(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"version": "1", "subsystems": [], "bits": [],
                                "instructions": []}))
    return str(path)


def test_simulate_empty_program(tmp_path):
    proc = run_cli("simulate", _empty_program(tmp_path), "--ideal")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["success_probability"] == pytest.approx(1.0)
    assert doc["branches"][0]["state"]["amplitudes"] == [[1, 0]]


def test_simulate_sampled_branch():
    proc = run_cli("simulate", "--demo", "bell", "--ideal",
                   "--branches", "sample", "--seed", "4")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["branches"]) == 1
    assert doc["branches"][0]["classical"]["m"] in (0, 1)


def test_simulate_csv_output():
    proc = run_cli("simulate", "--demo", "bell", "--ideal", "--out", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "branch,failed,branch_weight,success_probability,classical"
    assert len(lines) == 3
    assert lines[1].startswith("0,0,0.5,")


def _bell_with_bit(tmp_path, bit):
    doc = program_to_doc(bell_generator())
    doc["bits"] = [bit]
    for entry in doc["instructions"]:
        if entry.get("bit") == "m":
            entry["bit"] = bit
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("bit", ["m x", "m-é", "m'"])
def test_csv_row_keeps_five_fields_for_any_allowed_bit_name(tmp_path, bit):
    code, stdout, _ = run_main("simulate", str(_bell_with_bit(tmp_path, bit)),
                               "--ideal", "--out", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(stdout)))
    assert len(rows) == 3 and all(len(row) == 5 for row in rows)
    assert rows[1][4] in (f"{bit}=0", f"{bit}=1")


def test_simulate_heralded_failure_exits_two(tmp_path):
    path = tmp_path / "fail.json"
    doc = {
        "version": "1",
        "subsystems": [{"name": "p", "kind": "photon"}],
        "bits": ["m"],
        "instructions": [
            {"op": "prepare", "target": "p", "state": [[0, 0], [0, 0], [1, 0]]},
            {"op": "measure", "target": "p", "basis": "photon_computational",
             "bit": "m"},
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    proc = run_cli("simulate", path, "--ideal")
    assert proc.returncode == 2
    out = json.loads(proc.stdout)
    assert all(b["failed"] for b in out["branches"])


def test_simulate_requires_one_source(tmp_path):
    for argv in (("simulate", _empty_program(tmp_path), "--demo", "bell"), ("simulate",)):
        assert run_main(*argv) == (
            1, "", "zenosim: error: pass exactly one of a circuit file or --demo\n")


def test_simulate_unknown_demo():
    assert run_main("simulate", "--demo", "nope") == (
        1, "", f"zenosim: error: unknown demo 'nope'; available: {', '.join(sorted(DEMOS))}\n")


def _op(op, **args) -> dict:
    return {"op": op, **args}


def _doc(**fields) -> str:
    """The text of a version-1 circuit file holding `fields`."""
    return json.dumps({"version": "1", **fields})


# Photons s, p and r, a 2-position particle b and a 3-position particle q.
# The photon s is prepared on |1V> and measured into m, where only the
# failure outcome has weight, so no walk reaches what follows; the
# validator checks it all the same.  _SET_UP prepares every other one.
_SUBSYSTEMS = [{"name": name, "kind": "photon"} for name in "spr"] + [
    {"name": "b", "kind": "particle"}, {"name": "q", "kind": "particle", "dim": 3}]
_FAILED_FIRST = [_op("prepare", target="s", level=2),
                 _op("measure", target="s", basis="photon_computational", bit="m")]
_SET_UP = _FAILED_FIRST + [_op("prepare", target=name, level=0) for name in "prbq"]
# q measured into the bit k, which reads 0, 1 or 2, then p prepared
_QUDIT_BIT = [_op("prepare", target="q", uniform=True),
              _op("measure", target="q", basis="qudit_position", bit="k"),
              _op("prepare", target="p", level=1)]


def _after(head, *instructions) -> str:
    """A file over `_SUBSYSTEMS` and the bits m, k and z: `head`, then
    `instructions`."""
    return _doc(subsystems=_SUBSYSTEMS, bits=["m", "k", "z"],
                instructions=[*head, *instructions])


def _prepare(target, **args) -> str:
    return _after(_FAILED_FIRST, _op("prepare", target=target, **args))


def _particle(dim) -> tuple[str, str]:
    return (_doc(subsystems=[{"name": "b", "kind": "particle", "dim": dim}]),
            f"subsystems[0]: particle 'b' needs an integer number of positions, at least 2, "
            f"got {dim!r}")


def _named(kind, name) -> tuple[str, str]:
    return (_doc(subsystems=[{"name": name, "kind": kind}]),
            f"subsystems[0]: name must be a non-empty string, got {name!r}")


def _bit(bit) -> tuple[str, str]:
    return _doc(bits=["m", bit]), f"bits[1]: a bit name must be a string, got {bit!r}"


def _csv_bit(bit) -> tuple[str, str]:
    return _doc(bits=[bit]), f"bits[0]: {bit!r} may not hold , ; = \" or a line break"


def _phase(coeff, head=_FAILED_FIRST) -> tuple[str, str]:
    # 2 * coeff, on the bit k that can read 2, is not finite
    return (_after(head, *_QUDIT_BIT, _op("cphase", key="k", target="p", coeff=coeff)),
            f"instructions[{len(head) + 3}]: cphase coeff {coeff!r} times 2, the largest "
            f"value of bit 'k', is not finite")


_SLACK = [[1.0000000000004499, 0.0]]  # norm^2 1 + 0.9e-12, within the prepare tolerance
_TWO_PHOTONS = [{"name": "p", "kind": "photon"}, {"name": "q", "kind": "photon"}]

# Every rejection a circuit file can reach: the file's text and the one
# message it ends in, at load and through `simulate` and `oracle-check`
REJECTED = {
    # the text and its top level
    "parse-error": ('{"version": "1",\n  "subsystems": [}\n', "parse error at line 2 column 18"),
    # json.load recurses once per nesting level
    "nested": ("[" * 100_000, "parse error: arrays or objects nested too deeply"),
    "top-level-list": ("[]", "top level must be an object"),
    "version-number": ('{"version": 1}', "unsupported version 1"),
    # a name no loader reads: a misspelt list would load as an empty program
    "misspelt-list": (_doc(subsystems=_SUBSYSTEMS, instrucions=[]),
                      "top level takes no field 'instrucions'"),
    "bits-not-a-list": (_doc(subsystems=[], bits=5, instructions=[]), "bits must be a list"),
    # subsystems, each rule as SubsystemSpec and the validator state it
    "subsystem-not-an-object": (_doc(subsystems=["p"]), "subsystems[0]: must be an object"),
    "photon-name-empty": _named("photon", ""),
    "particle-name-empty": _named("particle", ""),
    "photon-name-list": _named("photon", ["p"]),
    "particle-name-list": _named("particle", ["p"]),
    "photon-name-number": _named("photon", 3),
    "particle-name-number": _named("particle", 3),
    "photon-name-missing": (_doc(subsystems=[_SUBSYSTEMS[0], {"kind": "photon"}]),
                            "subsystems[1]: name must be a non-empty string, got None"),
    "kind-widget": (_doc(subsystems=[{"name": "w", "kind": "widget"}]),
                    "subsystems[0]: unknown kind 'widget'"),
    # the value given is named as it is, never as the level count it makes
    "particle-dim-1": _particle(1),
    "particle-dim-0": _particle(0),
    "particle-dim-negative": _particle(-3),
    "particle-dim-2.7": _particle(2.7),
    "particle-dim-2.0": _particle(2.0),
    "particle-dim-list": _particle([2]),
    "particle-dim-string": _particle("3"),
    "particle-dim-null": _particle(None),
    "particle-dim-true": _particle(True),
    "photon-dimm": (_doc(subsystems=[{"name": "p", "kind": "photon", "dimm": 3}]),
                    "subsystems[0]: photon takes no field 'dimm'"),
    "photon-dim": (_doc(subsystems=[_TWO_PHOTONS[0], {"name": "q", "kind": "photon", "dim": 3}]),
                   "subsystems[1]: photon takes no field 'dim'"),
    "particle-dims": (_doc(subsystems=[{"name": "b", "kind": "particle", "dims": 3}]),
                      "subsystems[0]: particle takes no field 'dims'"),
    "duplicate-subsystem": (_doc(subsystems=[_TWO_PHOTONS[0], {"name": "p", "kind": "particle"}]),
                            "subsystems[1]: duplicate subsystem name 'p'"),
    # sizes the engine cannot hold end before anything is allocated
    "particle-past-the-level-cap": (
        _doc(subsystems=[{"name": "b", "kind": "particle", "dim": 10 ** 9}],
             instructions=[_op("prepare", target="b")]),
        "subsystems[0]: 'b' would have 1000000001 levels; the engine allows at most 1024"),
    "second-subsystem-past-the-level-cap": (
        _doc(subsystems=[_TWO_PHOTONS[0], {"name": "b", "kind": "particle", "dim": 1999}]),
        "subsystems[1]: 'b' would have 2000 levels; the engine allows at most 1024"),
    "state-past-the-amplitude-cap": (
        _doc(subsystems=[{"name": f"b{i}", "kind": "particle", "dim": 200} for i in range(3)],
             instructions=[_op("prepare", target=f"b{i}") for i in range(3)]),
        "instructions[2]: preparing 'b2' makes a state of 8120601 amplitudes; the engine "
        "allows at most 1048576"),
    # bits
    "bit-number": _bit(3),
    "bit-null": _bit(None),
    "bit-list": _bit(["m"]),
    "duplicate-bit": (_doc(subsystems=[], bits=["a", "a"]), "bits[1]: duplicate bit name 'a'"),
    # names that would split a CSV row
    "bit-comma-semicolon-equals": _csv_bit("m,x;y=1"),
    "bit-comma": _csv_bit("a,b"),
    "bit-semicolon": _csv_bit("a;b"),
    "bit-equals": _csv_bit("a=b"),
    "bit-quote": _csv_bit('a"b'),
    "bit-newline": _csv_bit("a\nb"),
    "bit-carriage-return": _csv_bit("a\rb"),
    # an instruction's op and argument names and types
    "missing-op": (_doc(instructions=[{"target": "p"}]), "instructions[0]: missing op"),
    "unknown-op": (_doc(subsystems=[], bits=[], instructions=[_op("warp")]),
                   "instructions[0]: unknown op 'warp'"),
    "op-not-a-name": (_doc(instructions=[_op(["photon_h"])]),
                      "instructions[0]: unknown op ['photon_h']"),
    "missing-argument": (_after(_FAILED_FIRST, _op("photon_h")),
                         "instructions[2]: photon_h needs argument 'target'"),
    # a name no op reads, and a second form that prepare would drop
    "misspelt-argument": (_prepare("p", levle=1),
                          "instructions[2]: prepare takes no argument 'levle'"),
    "pm-and-level": (_prepare("b", pm="+", level=1),
                     "instructions[2]: prepare takes one of level, pm, state or a true "
                     "uniform, got level and pm"),
    "uniform-and-level": (_prepare("q", uniform=True, level=0),
                          "instructions[2]: prepare takes one of level, pm, state or a true "
                          "uniform, got level and uniform"),
    "uniform-and-state": (_prepare("q", uniform=True, state=[[1, 0]]),
                          "instructions[2]: prepare takes one of level, pm, state or a true "
                          "uniform, got state and uniform"),
    "target-not-a-name": (_after(_FAILED_FIRST, _op("photon_h", target=["p"])),
                          "instructions[2]: photon_h argument 'target' must be a subsystem "
                          "name, got ['p']"),
    "state-not-a-list": (_prepare("p", state=5),
                         "instructions[2]: prepare argument 'state' must be a list of [re, im] "
                         "pairs, got 5"),
    "level-not-an-integer": (_prepare("p", level=[1]),
                             "instructions[2]: prepare argument 'level' must be an integer, "
                             "got [1]"),
    "basis-not-a-name": (_after(_FAILED_FIRST, _op("measure", target="p", basis=["x"], bit="m")),
                         "instructions[2]: measure argument 'basis' must be a basis name, "
                         "got ['x']"),
    "blocking-not-a-list": (
        _after(_SET_UP, _op("qicz_multi", photon="p", particles=["b"], blocking=5)),
        "instructions[6]: qicz_multi argument 'blocking' must be a list of blocking positions "
        "or position lists, got 5"),
    "particles-not-a-list": (_after(_SET_UP, _op("qicz_multi", photon="p", particles="b")),
                             "instructions[6]: qicz_multi argument 'particles' must be a list "
                             "of subsystem names, got 'b'"),
    "coeff-not-a-number": (_after(_SET_UP, _op("cphase", key="m", target="p", coeff="x")),
                           "instructions[6]: cphase argument 'coeff' must be a number, got 'x'"),
    # numbers past the largest double
    "state-overflow": (_prepare("p", state=[[10 ** 400, 0]]),
                       f"instructions[2]: prepare argument 'state' must be a list of [re, im] "
                       f"pairs, got [[{10 ** 400}, 0]]"),
    "coeff-overflow": (_after(_SET_UP, _op("cphase", key="m", target="p", coeff=10 ** 400)),
                       f"instructions[6]: cphase argument 'coeff' must be a number, "
                       f"got {10 ** 400}"),
    # what each instruction may act on and read
    "undeclared-subsystem": (_after(_FAILED_FIRST, _op("photon_h", target="x")),
                             "instructions[2]: undeclared subsystem 'x'"),
    "used-before-prepare": (_after(_FAILED_FIRST, _op("photon_h", target="p")),
                            "instructions[2]: 'p' used before prepare"),
    "prepared-twice": (_after(_SET_UP, _op("prepare", target="p", level=0)),
                       "instructions[6]: 'p' prepared twice"),
    # a measured subsystem is gone for good
    "used-after-measurement": (_after(_FAILED_FIRST, _op("photon_h", target="s")),
                               "instructions[2]: 's' used after measurement"),
    "reused-after-measurement": (_prepare("s"), "instructions[2]: 's' reused after measurement"),
    "unknown-basis": (_after(_SET_UP, _op("measure", target="p", basis="diagonal", bit="k")),
                      "instructions[6]: unknown basis 'diagonal'"),
    "undeclared-bit": (_after(_SET_UP, _op("measure", target="p", basis="photon_computational",
                                           bit="y")),
                       "instructions[6]: undeclared bit 'y'"),
    "read-before-write": (_after(_SET_UP, _op("cx", bit="k", target="p")),
                          "instructions[6]: bit 'k' read before write"),
    "xor-read-before-write": (_after((), _op("xor", a="k", b="m", out="z")),
                              "instructions[0]: bit 'k' read before write"),
    # the engine fires a correction on any nonzero value, the oracle on value & 1
    "cx-on-a-3-valued-bit": (_after(_FAILED_FIRST, *_QUDIT_BIT, _op("cx", bit="k", target="p")),
                             "instructions[5]: cx needs a 0/1 control, but bit 'k' can hold "
                             "0..2; use cphase for integer outcomes"),
    "cz-on-a-3-valued-bit": (_after(_FAILED_FIRST, *_QUDIT_BIT, _op("cz", bit="k", target="p")),
                             "instructions[5]: cz needs a 0/1 control, but bit 'k' can hold "
                             "0..2; use cphase for integer outcomes"),
    "cx-on-a-4-valued-xor": (_after(_FAILED_FIRST, *_QUDIT_BIT, _op("xor", a="m", b="k", out="z"),
                                    _op("cx", bit="z", target="p")),
                             "instructions[6]: cx needs a 0/1 control, but bit 'z' can hold "
                             "0..3; use cphase for integer outcomes"),
    "cz-on-a-4-valued-xor": (_after(_FAILED_FIRST, *_QUDIT_BIT, _op("xor", a="m", b="k", out="z"),
                                    _op("cz", bit="z", target="p")),
                             "instructions[6]: cz needs a 0/1 control, but bit 'z' can hold "
                             "0..3; use cphase for integer outcomes"),
    # prepared vectors, each a rule of the engine's own prepare
    "pm-sign": (_prepare("b", pm="x"), "instructions[2]: sign must be '+' or '-'"),
    "pm-on-photon": (_prepare("p", pm="+"), "instructions[2]: pm preparation needs a 2-position "
                                            "particle, but 'p' is a photon"),
    "pm-on-qudit": (_prepare("q", pm="-"), "instructions[2]: pm preparation needs a 2-position "
                                           "particle, but 'q' is a 3-position particle"),
    "uniform-on-photon": (_prepare("p", uniform=True), "instructions[2]: a position count needs "
                                                       "a particle, but 'p' is a photon"),
    # a level outside 0..dim-1 is an engine error, never an index from the end
    "level-7": (_prepare("p", level=7), "instructions[2]: level 7 out of range for 'p'"),
    "level-3": (_prepare("b", level=3), "instructions[2]: level 3 out of range for 'b'"),
    "level-negative": (_prepare("b", level=-1), "instructions[2]: level -1 out of range for 'b'"),
    "state-too-long": (_prepare("p", state=[[0.5, 0]] * 5),
                       "instructions[2]: initial vector too long for 'p'"),
    "state-unnormalized": (_prepare("p", state=[[1, 0], [1, 0]]),
                           "instructions[2]: initial vector must be normalized"),
    "state-empty": (_prepare("b", state=[]), "instructions[2]: initial vector must be normalized"),
    # a norm^2 that overflows: np.vdot makes it nan, which a walk would only
    # meet as an unlocated StateVector error
    "state-norm-overflow": (_prepare("p", state=[[1e308, 1e308]]),
                            "instructions[2]: initial vector must be normalized"),
    "state-norm-overflow-reached": (
        _after((), _op("prepare", target="p", state=[[1e308, 1e308]])),
        "instructions[0]: initial vector must be normalized"),
    # each vector is within the tolerance, but together they make a state of
    # norm^2 1 + 1.8e-12, which the engine would reject mid-run
    "norm-product": (_doc(subsystems=_TWO_PHOTONS, instructions=[
        _op("prepare", target=name, state=_SLACK) for name in "pq"]),
        "instructions[1]: preparing 'q' makes a state of norm^2 1.0000000000017994, above "
        "1 + 1e-12"),
    "phase-overflow": _phase(1e308),
    "phase-overflow-reached": _phase(1e308, head=()),
    "phase-overflow-negative": _phase(-1e308),
    "phase-overflow-integer": _phase(10 ** 308),
    "phase-overflow-1.7e308": _phase(1.7e308),
    # a measurement in a basis whose outcomes the subsystem does not have
    "pm-basis-on-photon": (
        _after(_SET_UP, _op("measure", target="p", basis="particle_pm", bit="k")),
        "instructions[6]: particle_pm needs a 2-position particle, but 'p' is a photon"),
    "particle-basis-on-photon": (
        _after(_SET_UP, _op("measure", target="p", basis="particle_computational", bit="k")),
        "instructions[6]: particle_computational needs a particle, but 'p' is a photon"),
    "position-basis-on-photon": (
        _after(_SET_UP, _op("measure", target="p", basis="qudit_position", bit="k")),
        "instructions[6]: qudit_position needs a particle, but 'p' is a photon"),
    "pm-basis-on-qudit": (
        _after(_SET_UP, _op("measure", target="q", basis="particle_pm", bit="k")),
        "instructions[6]: particle_pm needs a 2-position particle, but 'q' is a 3-position "
        "particle"),
    "photon-basis-on-particle": (
        _after(_SET_UP, _op("measure", target="b", basis="photon_computational", bit="k")),
        "instructions[6]: photon_computational needs a photon, but 'b' is a 2-position particle"),
    # a gate on a subsystem of the wrong kind: each misfit of test_circuits'
    # table, whose engine calls end the same way, and one that a walk reaches
    **{"-".join([op, *(value for value in args.values() if isinstance(value, str))]): (
        _after(_SET_UP, _op(op, **args)),
        f"instructions[6]: {op} argument '{bad}' needs {needs}, but "
        f"'{args[bad][-1] if bad == 'particles' else args[bad]}' is {what}")
       for op, args, bad, needs, what in _GATE_MISFITS},
    "photon_h-b-reached": (_doc(subsystems=[{"name": "b", "kind": "particle"}], instructions=[
        _op("prepare", target="b"), _op("photon_h", target="b")]),
        "instructions[1]: photon_h argument 'target' needs a photon, but 'b' is a 2-position "
        "particle"),
    # qicz_multi lists that do not fit, each as the engine's own rule states it
    **{f"qicz_multi-{name}": (_after(_SET_UP, _op("qicz_multi", photon="p", **args)),
                              f"instructions[6]: {message}")
       for name, (args, message) in _QICZ_MULTI_MISFITS.items()},
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_file_is_one_error_line(tmp_path, name):
    # the library door raises the message, and each command prints it as
    # its one error line
    text, message = REJECTED[name]
    path = tmp_path / "rejected.json"
    path.write_text(text)
    try:
        load_program(str(path))
    except ValueError as exc:
        assert str(exc) == message
    else:
        raise AssertionError(f"{name} loaded")
    for command in ("simulate", "oracle-check"):
        assert run_main(command, path) == (1, "", f"zenosim: error: {message}\n")


def test_oracle_check_refuses_a_state_past_its_dimension_cap(tmp_path):
    # six photons in (|0> + |1H>)/sqrt(2) after a pm particle: 12,288
    # amplitudes, which the engine runs and the oracle refuses
    half = [[0.7071067811865476, 0.0]] * 2
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "version": "1",
        "subsystems": [{"name": "b", "kind": "particle"}]
        + [{"name": f"p{i}", "kind": "photon"} for i in range(6)],
        "instructions": [{"op": "prepare", "target": "b", "pm": "+"}]
        + [{"op": "prepare", "target": f"p{i}", "state": half} for i in range(6)]}))
    code, out, err = run_main("simulate", path, "--cycles", "333", "--out", "csv")
    assert (code, out.count("\n"), err) == (0, 2, "")
    assert run_main("oracle-check", path, "--cycles", "333") == (
        1, "", "zenosim: error: instructions[5]: preparing 'p4' would exceed the "
        "1280-dimensional cap\n")


def test_oracle_check_refuses_a_state_past_its_cap_that_no_branch_reaches(tmp_path):
    # the photon prepared in |1V> leaves only the failure outcome, so no
    # branch reaches the later prepares; the oracle plans them all before
    # its walk, as the validator checks them at load
    path = tmp_path / "unreached.json"
    path.write_text(json.dumps({
        "version": "1",
        "subsystems": [{"name": f"p{i}", "kind": "photon"} for i in range(7)],
        "bits": ["m"],
        "instructions": [{"op": "prepare", "target": "p0", "level": 2},
                         {"op": "measure", "target": "p0", "basis": "photon_computational",
                          "bit": "m"}]
        + [{"op": "prepare", "target": f"p{i}", "level": 0} for i in range(1, 7)]}))
    # simulate runs it to its one failed branch, which exits 2
    code, out, err = run_main("simulate", path, "--ideal", "--out", "csv")
    assert (code, out.count("\n"), err) == (2, 2, "")
    assert run_main("oracle-check", path, "--ideal") == (
        1, "", "zenosim: error: instructions[7]: preparing 'p6' would exceed the "
        "1280-dimensional cap\n")


def test_oracle_check_walks_more_measurements_than_the_recursion_limit(tmp_path):
    photons = 1200
    assert photons > sys.getrecursionlimit()
    names = [f"p{i}" for i in range(photons)]
    doc = {"version": "1", "subsystems": [{"name": n, "kind": "photon"} for n in names],
           "bits": [f"m{i}" for i in range(photons)],
           "instructions": [ins for i, n in enumerate(names) for ins in (
               {"op": "prepare", "target": n, "level": 0},
               {"op": "measure", "target": n, "basis": "photon_computational",
                "bit": f"m{i}"})]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    # in a fresh process, whose stack depth pytest's frames do not change
    proc = run_fresh("oracle-check", str(path), "--ideal")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("PASS")
    assert proc.stderr == ""


_HALF = [0.7071067811865476, 0.0]
_FAILURE_LEVEL_DOCS = {
    # residual |1V> on the photon, the particle half on its exploded level
    "overlap": {
        "version": "1",
        "subsystems": [{"name": "p", "kind": "photon"},
                       {"name": "b", "kind": "particle"}],
        "bits": [],
        "instructions": [
            {"op": "prepare", "target": "p", "state": [[0, 0], [0, 0], [1, 0]]},
            {"op": "prepare", "target": "b", "state": [_HALF, [0, 0], _HALF]},
            {"op": "qicz", "photon": "p", "particle": "b"},
        ]},
    # bystanders with weight on an exploded level and on a sink level
    "bystanders": {
        "version": "1",
        "subsystems": [{"name": "p", "kind": "photon"},
                       {"name": "b", "kind": "particle"},
                       {"name": "c", "kind": "particle"},
                       {"name": "q", "kind": "photon"}],
        "bits": [],
        "instructions": [
            {"op": "prepare", "target": "p", "level": 1},
            {"op": "prepare", "target": "b", "level": 1},
            {"op": "prepare", "target": "c", "state": [_HALF, [0, 0], _HALF]},
            {"op": "prepare", "target": "q",
             "state": [_HALF, [0, 0], [0, 0], _HALF]},
            {"op": "qicz", "photon": "p", "particle": "b"},
        ]},
}


@pytest.mark.parametrize("flags", [["--ideal"], ["--cycles", "3", "--absorb", "0.9"]])
@pytest.mark.parametrize("name", sorted(_FAILURE_LEVEL_DOCS))
def test_oracle_check_passes_with_failure_level_weight(tmp_path, name, flags):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_FAILURE_LEVEL_DOCS[name]))
    proc = run_cli("oracle-check", str(path), *flags)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert float(lines[0].removeprefix("deviation=")) <= 1e-10
    assert lines[1].startswith("PASS max_deviation<=")


def _zero_weight_doc(photon_level, measure):
    """`p` interrogates a blocked `b`, then a pm particle `c` is prepared into
    whatever weight is left (none, or at most ~1e-39 at one pi/2 cycle)."""
    instructions = [
        {"op": "prepare", "target": "p", "level": photon_level},
        {"op": "prepare", "target": "b", "level": 0},
        {"op": "qicz", "photon": "p", "particle": "b"},
        {"op": "prepare", "target": "c", "pm": "+"},
    ]
    if measure:
        instructions.append({"op": "measure", "target": "c",
                             "basis": "particle_pm", "bit": "m"})
    return {"version": "1",
            "subsystems": [{"name": "p", "kind": "photon"},
                           {"name": "b", "kind": "particle"},
                           {"name": "c", "kind": "particle"}],
            "bits": ["m"] if measure else [],
            "instructions": instructions}


def test_prepare_into_vanishing_weight_runs(tmp_path):
    # one quarter turn moves |1H> to |1V>, where the blocked absorber takes it
    path = tmp_path / "vanishing.json"
    path.write_text(json.dumps(_zero_weight_doc(1, measure=False)))
    flags = ["--cycles", "1", "--theta", "pi-over-2n"]
    proc = run_cli("simulate", str(path), *flags)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["success_probability"] < 1e-30
    proc = run_cli("oracle-check", str(path), *flags)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].startswith("PASS")


@pytest.mark.parametrize("flags", [["--ideal"], ["--cycles", "3"]])
def test_prepare_into_zero_weight_has_no_branches(tmp_path, flags):
    # the photon starts on its sink, which the interrogation prunes
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(_zero_weight_doc(3, measure=True)))
    proc = run_cli("simulate", str(path), *flags)
    assert proc.returncode == 2, proc.stderr
    out = json.loads(proc.stdout)
    assert out["branches"] == []
    assert out["success_probability"] == 0
    # a sampled run ends at the measurement as a failed profile draw would
    proc = run_cli("simulate", str(path), *flags, "--branches", "sample")
    assert proc.returncode == 2, proc.stderr
    (branch,) = json.loads(proc.stdout)["branches"]
    assert branch["failed"] is True
    assert branch["success_probability"] == 0
    assert branch["classical"] == {}
    assert branch["state"]["subsystems"] == ["p", "b", "c"]
    assert not any(x for pair in branch["state"]["amplitudes"] for x in pair)
    proc = run_cli("oracle-check", str(path), *flags)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].startswith("PASS")


def test_measurement_that_finds_no_weight_in_process(tmp_path):
    # in this process, so a line trace sees the sampled run's failed end:
    # one pi/2N cycle turns p's |1H> wholly to |1V>, which the blocked b
    # absorbs, and the measurement of p finds nothing
    path = tmp_path / "absorbed.json"
    path.write_text(json.dumps({
        "version": "1",
        "subsystems": [{"name": "p", "kind": "photon"}, {"name": "b", "kind": "particle"}],
        "bits": ["m"],
        "instructions": [
            {"op": "prepare", "target": "p", "level": 1},
            {"op": "prepare", "target": "b", "level": 0},
            {"op": "qicz", "photon": "p", "particle": "b"},
            {"op": "measure", "target": "p", "basis": "photon_computational", "bit": "m"},
        ]}))
    flags = [str(path), "--cycles", "1", "--theta", "pi-over-2n", "--absorb", "1"]
    code, out, err = run_main("simulate", *flags)
    assert (code, err) == (2, "")
    assert '"branches":[]' in out
    code, out, err = run_main("simulate", *flags, "--branches", "sample")
    assert (code, err) == (2, "")
    (branch,) = json.loads(out)["branches"]
    assert branch["failed"] is True and branch["classical"] == {}
    assert not any(x for pair in branch["state"]["amplitudes"] for x in pair)
    code, out, err = run_main("oracle-check", *flags)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("PASS")


@pytest.mark.parametrize("flags", [["--ideal"], ["--cycles", "333", "--absorb", "0.9"]])
def test_oracle_check_passes_a_bit_written_twice(tmp_path, flags):
    # two coin flips into one bit: four branches, two records
    doc = {"version": "1",
           "subsystems": [{"name": "p", "kind": "photon"}, {"name": "q", "kind": "photon"}],
           "bits": ["m"],
           "instructions": [
               {"op": "prepare", "target": "p", "level": 0},
               {"op": "photon_h", "target": "p"},
               {"op": "prepare", "target": "q", "level": 0},
               {"op": "photon_h", "target": "q"},
               {"op": "measure", "target": "p", "basis": "photon_computational", "bit": "m"},
               {"op": "measure", "target": "q", "basis": "photon_computational", "bit": "m"},
           ]}
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main("simulate", str(path), *flags, "--out", "csv")
    assert (code, err) == (0, "")
    assert [row.split(",")[4] for row in out.splitlines()[1:]] == ["m=0", "m=1"] * 2
    code, out, err = run_main("oracle-check", str(path), *flags)
    assert (code, err) == (0, "")
    assert float(out.splitlines()[0].removeprefix("deviation=")) <= 1e-10
    assert out.splitlines()[1].startswith("PASS")


def test_emitters_never_print_negative_zero():
    layout = (engine_state.particle("b", 2),)
    result = RunResult(StateVector(layout, np.array([-0.0, -0.0j, -0.0 - 0.0j])),
                       {}, -0.0, False, np.float64(-0.0))
    assert _simulate_json("x", QiParams(absorb_prob=-0.0, cycle_loss=-0.0), [result]) == (
        '{"branches":[{"branch_weight":0,"classical":{},"failed":false,"state":'
        '{"amplitudes":[[0,0],[0,0],[0,0]],"dims":[3],"subsystems":["b"]},'
        '"success_probability":0}],"params":{"absorb":0,"cycles":10000,"loss":0,'
        '"theta_rule":"pi_over_n"},"source":"x","success_probability":0}')
    assert _csv_line([-0.0, np.float64(-0.0), 2, "x"]) == "0,0,2,x"


def test_missing_file_reported(tmp_path):
    path = tmp_path / "no_such_file.json"
    assert run_main("simulate", path) == (
        1, "", f"zenosim: error: cannot read {path}: No such file or directory\n")


def test_unknown_family_and_bad_profile():
    assert run_main("census", "--family", "quantum") == (
        1, "", "zenosim: error: unknown family 'quantum'\n")
    assert run_main("montecarlo", "--family", "memory", "--profile", "1,1,1") == (
        1, "", "zenosim: error: profile needs five comma-separated values: p,q,r,s,eta\n")


def test_cnot_emit_simulate_and_oracle_check(tmp_path):
    emit = run_cli("cnot", "--family", "direct-cx")
    assert emit.returncode == 0
    path = tmp_path / "cnot.json"
    with open(path, "w") as fh:
        fh.write(emit.stdout)
    sim = run_cli("simulate", path, "--ideal")
    assert sim.returncode == 0
    check = run_cli("oracle-check", path, "--ideal")
    assert check.returncode == 0
    lines = check.stdout.strip().splitlines()
    assert lines[0].startswith("deviation=")
    assert lines[1].startswith("PASS max_deviation<=")


def assert_verification_fails_on_a_broken_engine(tmp_path) -> None:
    """With the engine's gate step undoing its axis move with the forward
    permutation, `cnot --verify` and `oracle-check` print FAIL with the
    largest deviation and exit 2."""
    path = tmp_path / "direct-cx.json"
    path.write_text(serialize_program(cnot_circuit("direct-cx")))
    mutant = _mutated_apply_local(
        "out.transpose(sorted(range(len(perm)), key=perm.__getitem__))", "out.transpose(perm)")
    with pytest.MonkeyPatch.context() as patch:
        for module in (engine_state, gates):  # gates holds its own binding
            patch.setattr(module, "apply_local", mutant)
        code, out, err = run_main("cnot", "--family", "direct-cx", "--verify", "--ideal")
        assert (code, out.splitlines()[-1], err) == (2, "FAIL max_deviation=0.75", "")
        assert run_main("oracle-check", path, "--ideal") == (
            2, "deviation=0.353553390593\nFAIL max_deviation=0.353553390593\n", "")


def test_verification_of_a_broken_engine_fails(tmp_path):
    assert_verification_fails_on_a_broken_engine(tmp_path)


def test_cnot_verify_passes():
    proc = run_cli("cnot", "--family", "direct-cz", "--verify", "--ideal")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("input c=0 t=0: deviation=")
    assert lines[-1].startswith("PASS max_deviation<=")


def test_serialize_roundtrip_identity():
    for program in (bell_generator(), cnot_circuit("memory")):
        doc = program_to_doc(program)
        rebuilt = program_from_doc(doc)
        assert program_to_doc(rebuilt) == doc
        assert serialize_program(rebuilt) == serialize_program(program)


def test_serialized_file_loads_back(tmp_path):
    path = tmp_path / "w3.json"
    program = cnot_circuit("half-memory-keep-target")
    path.write_text(serialize_program(program))
    loaded = load_program(str(path))
    assert program_to_doc(loaded) == program_to_doc(program)


def test_sweep_zeno_csv():
    proc = run_cli("sweep", "--what", "zeno", "--cycles", "2,10")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "n_cycles,theta_rule,absorb,loss,survival"
    assert len(lines) == 3
    assert lines[1].startswith("2,pi_over_n,1,0,")


def test_sweep_rejects_a_cycle_count_below_one():
    assert run_main("sweep", "--what", "zeno", "--cycles", "0,3") == (
        1, "", "zenosim: error: cycle counts must be positive integers\n")


def test_sweep_fidelity_csv():
    proc = run_cli("sweep", "--what", "fidelity", "--cycles", "5,50")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "n_cycles,absorb,loss,fidelity"
    assert len(lines) == 3


def test_sweep_fidelity_reads_the_theta_rule():
    # the pi/N rows, printed the same whether the rule is named or not
    rows = "n_cycles,absorb,loss,fidelity\n5,1,0,0.897365702906\n10,1,0,0.965316162654\n"
    assert run_main("sweep", "--what", "fidelity", "--cycles", "5,10") == (0, rows, "")
    assert run_main("sweep", "--what", "fidelity", "--cycles", "5,10",
                    "--theta", "pi-over-n") == (0, rows, "")
    # the exact limit the fidelity is taken against has no pi/2N form
    assert run_main("sweep", "--what", "fidelity", "--cycles", "5,10",
                    "--theta", "pi-over-2n") == (
        1, "", "zenosim: error: the exact limit is defined for the pi/N rule only\n")


_LIMIT_REFUSES = ("zenosim: error: the exact limit is defined for absorb_prob > 0 and "
                  "cycle_loss = 0 only\n")


@pytest.mark.parametrize("flags", [["--absorb", "0"], ["--loss", "0.5"]])
def test_exact_limit_refuses_settings_it_does_not_model(flags):
    # a transparent particle lets the photon turn and a per-cycle loss empties
    # it as N grows, so the limit has no value to print for either
    assert run_main("simulate", "--demo", "qicz", "--ideal", *flags) == (1, "", _LIMIT_REFUSES)


def test_exact_limit_runs_a_partial_absorber():
    # any absorber freezes the photon as N grows: the same branches as the
    # ideal absorber's, under the params it was given
    code, out, err = run_main("simulate", "--demo", "qicz", "--ideal", "--absorb", "0.5")
    assert (code, err) == (0, "")
    partial = json.loads(out)
    ideal = json.loads(run_main("simulate", "--demo", "qicz", "--ideal")[1])
    assert partial["params"]["absorb"] == 0.5
    assert partial["branches"] == ideal["branches"]


def test_sweep_yield_csv():
    proc = run_cli("sweep", "--what", "yield", "--profile", "0.9,0.9,0.9,0.9,0.9")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "family,p,q,r,s,eta,formula"
    assert len(lines) == 6
    assert lines[1].startswith("memory,0.9,0.9,0.9,0.9,0.9,")


@pytest.mark.parametrize("family, row, formula", [
    ("direct-cx", "direct-cx", "0.217728"),
    ("half-memory", "half-memory-keep-control", "0.07112448"),
])
def test_sweep_yield_for_one_family(family, row, formula):
    code, out, err = run_main("sweep", "--what", "yield", "--family", family,
                              "--profile", "0.9,0.8,0.7,0.6,0.5")
    assert (code, err) == (0, "")
    assert out == f"family,p,q,r,s,eta,formula\n{row},0.9,0.8,0.7,0.6,0.5,{formula}\n"
    assert float(formula) == pytest.approx(
        yield_formula(row, ImperfectionProfile(0.9, 0.8, 0.7, 0.6, 0.5)), rel=1e-12)


def test_montecarlo_csv():
    proc = run_cli("montecarlo", "--family", "direct-cx",
                   "--profile", "0.95,0.95,0.95,0.95,0.95",
                   "--trials", "20000", "--seed", "7")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "family,p,q,r,s,eta,trials,seed,estimate,stderr,formula"
    fields = lines[1].split(",")
    assert fields[0] == "direct-cx"
    assert fields[6] == "20000"
    assert fields[7] == "7"
    estimate = float(fields[8])
    formula = float(fields[10])
    assert abs(estimate - formula) < 0.02


def test_montecarlo_builds_and_validates_one_circuit(monkeypatch):
    # the formula column reads the census of the circuit the estimate ran
    programs = []
    validate = circuits.validate_program
    monkeypatch.setattr(circuits, "validate_program",
                        lambda program: programs.append(program) or validate(program))
    code, _, err = run_main("montecarlo", "--family", "memory",
                            "--profile", "0.9,0.9,0.9,0.9,0.9", "--trials", "10")
    assert (code, err) == (0, "")
    assert len(programs) == 1


def test_montecarlo_seed_out_of_range_is_one_error_line():
    proc = run_cli("montecarlo", "--family", "memory",
                   "--profile", "0.9,0.9,0.9,0.9,0.9", "--seed", "-1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "zenosim: error: seed must be in [0, 2**128), got -1\n"


def test_repeated_invocations_byte_identical():
    # two fresh processes, each with its own string hashes and empty memos
    a = run_fresh("simulate", "--demo", "wstate-3", "--ideal")
    b = run_fresh("simulate", "--demo", "wstate-3", "--ideal")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0



def assert_flags_do_not_outlive_their_call() -> None:
    """A flag given to one `main` call is not a default of the next one,
    which shares its parser.  The parser is rebuilt before and after, so a
    broken `main` cannot leave its defaults behind."""
    build_parser.cache_clear()
    try:
        first = run_main("simulate", "--demo", "bell", "--ideal")
        assert run_main("simulate", "--demo", "bell", "--ideal", "--out", "csv") != first
        assert run_main("simulate", "--demo", "bell", "--ideal") == first
    finally:
        build_parser.cache_clear()


def test_flags_do_not_outlive_their_call():
    assert_flags_do_not_outlive_their_call()


def test_main_calls_in_one_process_match_fresh_processes(tmp_path):
    # one call per subcommand, a heralded failure, and one per error class:
    # usage, load and run time
    cnot = tmp_path / "cnot.json"
    cnot.write_text(serialize_program(cnot_circuit("direct-cx")))
    failing = tmp_path / "fail.json"
    failing.write_text(json.dumps({
        "version": "1", "subsystems": [{"name": "p", "kind": "photon"}], "bits": ["m"],
        "instructions": [
            {"op": "prepare", "target": "p", "level": 2},
            {"op": "measure", "target": "p", "basis": "photon_computational", "bit": "m"},
        ]}))
    duplicate = tmp_path / "duplicate.json"
    duplicate.write_text(json.dumps({"version": "1", "subsystems": [
        {"name": "p", "kind": "photon"}, {"name": "p", "kind": "photon"}]}))
    calls = [
        ["simulate", "--demo", "bell", "--ideal"],
        ["simulate", "--demo", "bell"],
        ["simulate", "--demo", "bell", "--branches", "sample", "--seed", "3"],
        ["simulate", "--demo", "bell", "--out", "xml"],
        ["census", "--family", "memory"],
        ["cnot", "--family", "direct-cz"],
        ["sweep", "--what", "zeno", "--cycles", "2,10"],
        ["montecarlo", "--family", "direct-cx", "--profile", "0.9,0.9,0.9,0.9,0.9",
         "--trials", "1000", "--seed", "5"],
        ["oracle-check", str(cnot), "--cycles", "333"],
        ["simulate", str(failing), "--ideal"],
        ["oracle-check", str(duplicate)],
        ["sweep", "--what", "fidelity", "--cycles", "5", "--theta", "pi-over-2n"],
    ]
    codes = []
    for argv in calls:
        code, out, err = run_main(*argv)
        fresh = run_fresh(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 1, 1]
    assert build_parser() is build_parser()


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_serialized_demo_reads_back_equal(name):
    program = DEMOS[name]()
    text = serialize_program(program)
    again = program_from_doc(json.loads(text))
    assert again == program
    assert serialize_program(again) == text


def test_flags_serialize_as_booleans():
    doc = json.loads(serialize_program(w_state_generator(3)))
    assert doc["instructions"][0] == {"op": "prepare", "target": "q", "uniform": True}
    # files that carry a flag as 0 or 1 still load
    doc["instructions"][0]["uniform"] = 1
    assert program_from_doc(doc) == w_state_generator(3)
