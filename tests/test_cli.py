"""End-to-end command-line checks.  They call `main` in this process; a
subprocess runs `python -m zenosim.cli` only where a fresh process is what
the check is about: the entry point itself (whose calls must print what
`main` prints here), identical bytes from two fresh processes, and a walk
deeper than the recursion limit."""

import contextlib
import csv
import hashlib
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
    _float_array,
    _simulate_json,
    build_parser,
    load_program,
    main,
    program_from_doc,
    program_to_doc,
    serialize_program,
)
from zenosim.circuits import (
    CNOT_FAMILIES,
    DEMOS,
    RunResult,
    bell_generator,
    cnot_circuit,
    w_state_generator,
)
from zenosim.gates import ImperfectionProfile
from zenosim.interrogation import QiParams
from zenosim.state import StateVector

from test_emit import reference_emit_json
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


@pytest.mark.parametrize("bit", ["m,x;y=1", "a,b", "a;b", "a=b", 'a"b', "a\nb", "a\rb"])
def test_bit_name_that_would_split_a_csv_row_is_one_error_line(tmp_path, bit):
    code, stdout, stderr = run_main("simulate", str(_bell_with_bit(tmp_path, bit)),
                                    "--ideal", "--out", "csv")
    assert (code, stdout) == (1, "")
    assert stderr == (f"zenosim: error: bits[0]: {bit!r} may not hold , ; = \" "
                      "or a line break\n")


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
    both = run_cli("simulate", _empty_program(tmp_path), "--demo", "bell")
    neither = run_cli("simulate")
    for proc in (both, neither):
        assert proc.returncode == 1
        assert "error" in proc.stderr


def test_simulate_unknown_demo():
    proc = run_cli("simulate", "--demo", "nope")
    assert proc.returncode == 1
    assert "unknown demo" in proc.stderr


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    with open(path, "w") as fh:
        fh.write('{"version": "1",\n  "subsystems": [}\n')
    proc = run_cli("simulate", path)
    assert proc.returncode == 1
    assert "parse error at line 2 column" in proc.stderr


def test_unknown_op_reports_index(tmp_path):
    path = tmp_path / "badop.json"
    with open(path, "w") as fh:
        json.dump({"version": "1", "subsystems": [], "bits": [],
                   "instructions": [{"op": "warp"}]}, fh)
    proc = run_cli("simulate", path)
    assert proc.returncode == 1
    assert "instructions[0]: unknown op" in proc.stderr


# circuit files that do not load, each with its one error line
MALFORMED = [
    ({"version": "1", "subsystems": [{"name": "p", "kind": "photon"}],
      "bits": [], "instructions": [{"op": "photon_h"}]},
     "instructions[0]: photon_h needs argument 'target'"),
    ({"version": "1", "subsystems": [], "bits": 5, "instructions": []},
     "bits must be a list"),
    ({"version": "1", "instructions": [{"op": ["photon_h"]}]},
     "instructions[0]: unknown op ['photon_h']"),
    ({"version": "1", "subsystems": [{"name": "p", "kind": "photon"}],
      "instructions": [{"op": "prepare", "target": "p"},
                       {"op": "photon_h", "target": ["p"]}]},
     "instructions[1]: photon_h argument 'target' must be a subsystem name, got ['p']"),
    ({"version": "1", "subsystems": [{"name": "b", "kind": "particle", "dim": [2]}]},
     "subsystems[0]: particle 'b' needs an integer number of positions, at least 2, "
     "got [2]"),
    ({"version": "1", "subsystems": [{"name": "b", "kind": "particle", "dim": 2.7}]},
     "subsystems[0]: particle 'b' needs an integer number of positions, at least 2, "
     "got 2.7"),
    ({"version": "1", "subsystems": [{"name": "p", "kind": "photon"}],
      "instructions": [{"op": "prepare", "target": "p", "state": 5}]},
     "instructions[0]: prepare argument 'state' must be a list of [re, im] pairs, got 5"),
    ({"version": "1", "subsystems": [{"name": "p", "kind": "photon"}],
      "instructions": [{"op": "prepare", "target": "p", "level": [1]}]},
     "instructions[0]: prepare argument 'level' must be an integer, got [1]"),
    ({"version": "1", "subsystems": [{"name": "p", "kind": "photon"}], "bits": ["m"],
      "instructions": [{"op": "prepare", "target": "p"},
                       {"op": "measure", "target": "p", "basis": ["x"], "bit": "m"}]},
     "instructions[1]: measure argument 'basis' must be a basis name, got ['x']"),
    ({"version": "1", "subsystems": [{"name": "p", "kind": "photon"},
                                     {"name": "b", "kind": "particle"}],
      "instructions": [{"op": "prepare", "target": "p"},
                       {"op": "prepare", "target": "b"},
                       {"op": "qicz_multi", "photon": "p", "particles": ["b"],
                        "blocking": 5}]},
     "instructions[2]: qicz_multi argument 'blocking' must be a list of blocking "
     "positions or position lists, got 5"),
    ({"version": "1", "subsystems": [{"name": "p", "kind": "photon"},
                                     {"name": "b", "kind": "particle"}],
      "instructions": [{"op": "prepare", "target": "p"},
                       {"op": "prepare", "target": "b"},
                       {"op": "qicz_multi", "photon": "p", "particles": "b"}]},
     "instructions[2]: qicz_multi argument 'particles' must be a list of subsystem "
     "names, got 'b'"),
    ({"version": "1", "subsystems": [{"name": "p", "kind": "photon"},
                                     {"name": "q", "kind": "particle", "dim": 3}],
      "bits": ["k"],
      "instructions": [{"op": "prepare", "target": "q", "uniform": True},
                       {"op": "measure", "target": "q", "basis": "qudit_position",
                        "bit": "k"},
                       {"op": "prepare", "target": "p"},
                       {"op": "cphase", "key": "k", "target": "p", "coeff": "x"}]},
     "instructions[3]: cphase argument 'coeff' must be a number, got 'x'"),
    # sizes and numbers the engine cannot hold end before anything is allocated
    ({"version": "1", "subsystems": [{"name": "b", "kind": "particle", "dim": 10 ** 9}],
      "instructions": [{"op": "prepare", "target": "b"}]},
     "subsystems[0]: 'b' would have 1000000001 levels; the engine allows at most 1024"),
    ({"version": "1",
      "subsystems": [{"name": f"b{i}", "kind": "particle", "dim": 200} for i in range(3)],
      "instructions": [{"op": "prepare", "target": f"b{i}"} for i in range(3)]},
     "instructions[2]: preparing 'b2' makes a state of 8120601 amplitudes; the engine "
     "allows at most 1048576"),
    ({"version": "1", "subsystems": [{"name": "p", "kind": "photon"}],
      "instructions": [{"op": "prepare", "target": "p", "state": [[10 ** 400, 0]]}]},
     f"instructions[0]: prepare argument 'state' must be a list of [re, im] pairs, "
     f"got [[{10 ** 400}, 0]]"),
    ({"version": "1", "subsystems": [{"name": "p", "kind": "photon"}],
      "instructions": [{"op": "prepare", "target": "p"},
                       {"op": "cphase", "key": "k", "target": "p", "coeff": 10 ** 400}]},
     f"instructions[1]: cphase argument 'coeff' must be a number, got {10 ** 400}"),
    # a level outside 0..dim-1 is an engine error, never an index from the end
    ({"version": "1", "subsystems": [{"name": "b", "kind": "particle"}],
      "instructions": [{"op": "prepare", "target": "b", "level": -1}]},
     "instructions[0]: level -1 out of range for 'b'"),
    ({"version": "1", "subsystems": [{"name": "b", "kind": "particle"}],
      "instructions": [{"op": "prepare", "target": "b", "level": 3}]},
     "instructions[0]: level 3 out of range for 'b'"),
    # a name used twice is named where it repeats
    ({"version": "1", "subsystems": [{"name": "p", "kind": "photon"},
                                     {"name": "p", "kind": "particle"}]},
     "subsystems[1]: duplicate subsystem name 'p'"),
    ({"version": "1", "subsystems": [], "bits": ["a", "a"]},
     "bits[1]: duplicate bit name 'a'"),
    # each rule of one subsystem or bit, as `SubsystemSpec` and the validator
    # state it
    ({"version": "1", "subsystems": [{"name": "", "kind": "photon"}]},
     "subsystems[0]: name must be a non-empty string, got ''"),
    ({"version": "1", "subsystems": [{"name": "p", "kind": "photon"}, {"kind": "photon"}]},
     "subsystems[1]: name must be a non-empty string, got None"),
    ({"version": "1", "subsystems": [{"name": 3, "kind": "particle"}]},
     "subsystems[0]: name must be a non-empty string, got 3"),
    ({"version": "1", "subsystems": [{"name": "w", "kind": "widget"}]},
     "subsystems[0]: unknown kind 'widget'"),
    ({"version": "1", "subsystems": [{"name": "b", "kind": "particle", "dim": True}]},
     "subsystems[0]: particle 'b' needs an integer number of positions, at least 2, "
     "got True"),
    ({"version": "1", "bits": ["m", 3]},
     "bits[1]: a bit name must be a string, got 3"),
    # a measured subsystem is gone for good
    ({"version": "1", "subsystems": [{"name": "p", "kind": "photon"}], "bits": ["m"],
      "instructions": [{"op": "prepare", "target": "p"},
                       {"op": "measure", "target": "p", "basis": "photon_computational",
                        "bit": "m"},
                       {"op": "prepare", "target": "p"}]},
     "instructions[2]: 'p' reused after measurement"),
]


def assert_file_is_one_error_line(path, text, message) -> None:
    """A file at `path` holding `text` ends both `simulate` and
    `oracle-check` in the one error line `message`."""
    path.write_text(text)
    for command in ("simulate", "oracle-check"):
        proc = run_cli(command, str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"zenosim: error: {message}\n"


@pytest.mark.parametrize("doc, message", MALFORMED)
def test_malformed_file_is_one_error_line(tmp_path, doc, message):
    assert_file_is_one_error_line(tmp_path / "malformed.json", json.dumps(doc), message)


def test_prepared_norms_past_the_state_tolerance_end_at_load(tmp_path):
    # each vector is within 1e-12 of unit norm^2, but together they make a
    # state of norm^2 1 + 1.8e-12, which the engine would reject mid-run
    slack = [[1.0000000000004499, 0.0]]
    path = tmp_path / "slack.json"
    path.write_text(json.dumps({
        "version": "1",
        "subsystems": [{"name": "p", "kind": "photon"}, {"name": "q", "kind": "photon"}],
        "instructions": [{"op": "prepare", "target": "p", "state": slack},
                         {"op": "prepare", "target": "q", "state": slack}]}))
    for argv in (["simulate", "--ideal"], ["simulate", "--branches", "sample"],
                 ["oracle-check", "--cycles", "3"]):
        code, out, err = run_main(argv[0], str(path), *argv[1:])
        assert (code, out) == (1, "")
        assert err.startswith("zenosim: error: instructions[1]: preparing 'q' makes a "
                              "state of norm^2 1.00000000000179")
        assert err.count("\n") == 1


def test_cx_on_qudit_outcome_rejected_before_oracle_check(tmp_path):
    path = tmp_path / "qudit_cx.json"
    path.write_text(json.dumps({
        "version": "1",
        "subsystems": [{"name": "q", "kind": "particle", "dim": 3},
                       {"name": "p", "kind": "photon"}],
        "bits": ["m"],
        "instructions": [
            {"op": "prepare", "target": "q", "uniform": True},
            {"op": "measure", "target": "q", "basis": "qudit_position", "bit": "m"},
            {"op": "prepare", "target": "p", "level": 0},
            {"op": "cx", "bit": "m", "target": "p"},
        ]}))
    proc = run_cli("oracle-check", str(path), "--ideal")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("zenosim: error: instructions[3]: cx needs a 0/1 control")


# a gate on a subsystem of the wrong kind, once where no branch reaches it
_WRONG_KIND_DOCS = {
    "unreachable": ({
        "version": "1",
        "subsystems": [{"name": "p", "kind": "photon"},
                       {"name": "b", "kind": "particle", "dim": 3}],
        "bits": ["m"],
        "instructions": [
            {"op": "prepare", "target": "p", "level": 2},
            {"op": "measure", "target": "p", "basis": "photon_computational",
             "bit": "m"},
            {"op": "prepare", "target": "b"},
            {"op": "particle_x", "target": "b"},
        ]},
        "instructions[3]: particle_x argument 'target' needs a 2-position "
        "particle, but 'b' is a 3-position particle"),
    "photon-gate": ({
        "version": "1",
        "subsystems": [{"name": "b", "kind": "particle"}],
        "bits": [],
        "instructions": [{"op": "prepare", "target": "b"},
                         {"op": "photon_h", "target": "b"}]},
        "instructions[1]: photon_h argument 'target' needs a photon, but 'b' "
        "is a 2-position particle"),
}


@pytest.mark.parametrize("command", ["simulate", "oracle-check"])
@pytest.mark.parametrize("name", sorted(_WRONG_KIND_DOCS))
def test_gate_on_wrong_kind_is_one_error_line(tmp_path, name, command):
    doc, message = _WRONG_KIND_DOCS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(command, str(path), "--ideal")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"zenosim: error: {message}\n"


# qicz_multi lists that do not fit, after a measurement that always fails
_QICZ_MULTI_PREFIX = {
    "version": "1",
    "subsystems": [{"name": "s", "kind": "photon"}, {"name": "p", "kind": "photon"},
                   {"name": "b", "kind": "particle"}],
    "bits": ["m"],
    "instructions": [
        {"op": "prepare", "target": "s", "level": 2},
        {"op": "measure", "target": "s", "basis": "photon_computational", "bit": "m"},
        {"op": "prepare", "target": "p", "level": 1},
        {"op": "prepare", "target": "b"},
    ]}
_QICZ_MULTI_LISTS = {
    "listed-twice": ({"particles": ["b", "b"]},
                     "instructions[4]: particle 'b' listed twice"),
    "blocking-length": ({"particles": ["b"], "blocking": [0, 1]},
                        "instructions[4]: one blocking entry per particle required"),
    "blocking-position": ({"particles": ["b"], "blocking": [5]},
                          "instructions[4]: blocking position 5 invalid for 'b' "
                          "(positions 0..1; the exploded level cannot block)"),
}


@pytest.mark.parametrize("command", ["simulate", "oracle-check"])
@pytest.mark.parametrize("name", sorted(_QICZ_MULTI_LISTS))
def test_qicz_multi_lists_that_do_not_fit_are_one_error_line(tmp_path, name, command):
    args, message = _QICZ_MULTI_LISTS[name]
    doc = json.loads(json.dumps(_QICZ_MULTI_PREFIX))
    doc["instructions"].append({"op": "qicz_multi", "photon": "p", **args})
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(command, str(path), "--ideal")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"zenosim: error: {message}\n"


def _arguments_doc(*instructions, failed_first=True):
    """A program that ends in `instructions`; with `failed_first`, after a
    photon measurement that only the failure outcome survives, so that no
    walk reaches them."""
    head = [{"op": "prepare", "target": "s", "level": 2},
            {"op": "measure", "target": "s", "basis": "photon_computational",
             "bit": "m"}] if failed_first else []
    return {"version": "1",
            "subsystems": [{"name": "s", "kind": "photon"},
                           {"name": "p", "kind": "photon"},
                           {"name": "b", "kind": "particle"},
                           {"name": "q", "kind": "particle", "dim": 3}],
            "bits": ["m", "k"], "instructions": head + list(instructions)}


# a cphase on a bit that can read 2, where 2 * coeff overflows
_KEYED_PHASE = [{"op": "prepare", "target": "q", "uniform": True},
                {"op": "measure", "target": "q", "basis": "qudit_position", "bit": "k"},
                {"op": "prepare", "target": "p", "level": 1},
                {"op": "cphase", "key": "k", "target": "p", "coeff": 1e308}]
_PHASE_MESSAGE = "cphase coeff 1e+308 times 2, the largest value of bit 'k', is not finite"
_ARGUMENT_DOCS = {
    "pm-sign": (_arguments_doc({"op": "prepare", "target": "b", "pm": "x"}),
                "instructions[2]: sign must be '+' or '-'"),
    "uniform-photon": (_arguments_doc({"op": "prepare", "target": "p", "uniform": True}),
                       "instructions[2]: a position count needs a particle, but 'p' "
                       "is a photon"),
    "level": (_arguments_doc({"op": "prepare", "target": "p", "level": 7}),
              "instructions[2]: level 7 out of range for 'p'"),
    "state-length": (_arguments_doc({"op": "prepare", "target": "p",
                                     "state": [[0.5, 0]] * 5}),
                     "instructions[2]: initial vector too long for 'p'"),
    "state-norm": (_arguments_doc({"op": "prepare", "target": "p",
                                   "state": [[1, 0], [1, 0]]}),
                   "instructions[2]: initial vector must be normalized"),
    # a norm^2 that overflows: np.vdot makes it nan, which a walk would only
    # meet as an unlocated StateVector error
    "state-norm-overflow": (_arguments_doc({"op": "prepare", "target": "p",
                                            "state": [[1e308, 1e308]]}, failed_first=False),
                            "instructions[0]: initial vector must be normalized"),
    # a name no op reads, and a second form that prepare would drop
    "misspelt": (_arguments_doc({"op": "prepare", "target": "p", "levle": 1}),
                 "instructions[2]: prepare takes no argument 'levle'"),
    "pm-and-level": (_arguments_doc({"op": "prepare", "target": "b", "pm": "+",
                                     "level": 1}),
                     "instructions[2]: prepare takes one of level, pm, state or a "
                     "true uniform, got level and pm"),
    "uniform-and-state": (_arguments_doc({"op": "prepare", "target": "q",
                                          "uniform": True, "state": [[1, 0]]}),
                          "instructions[2]: prepare takes one of level, pm, state or "
                          "a true uniform, got state and uniform"),
    "phase-unreached": (_arguments_doc(*_KEYED_PHASE),
                        f"instructions[5]: {_PHASE_MESSAGE}"),
    "phase-reached": (_arguments_doc(*_KEYED_PHASE, failed_first=False),
                      f"instructions[3]: {_PHASE_MESSAGE}"),
}


@pytest.mark.parametrize("command", ["simulate", "oracle-check"])
@pytest.mark.parametrize("name", sorted(_ARGUMENT_DOCS))
def test_arguments_the_engine_would_reject_are_one_error_line(tmp_path, name, command):
    doc, message = _ARGUMENT_DOCS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(command, str(path), "--ideal")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"zenosim: error: {message}\n"


_UNLOADABLE = {
    # json.load recurses once per nesting level
    "nested": ("[" * 100_000, "parse error: arrays or objects nested too deeply"),
    "dim-1": (json.dumps({"version": "1", "subsystems": [
        {"name": "b", "kind": "particle", "dim": 1}]}),
              "subsystems[0]: particle 'b' needs an integer number of positions, "
              "at least 2, got 1"),
    # names no loader reads: a misspelt list would load as an empty program
    "misspelt-list": (json.dumps({"version": "1", "subsystems": [
        {"name": "p", "kind": "photon"}], "instrucions": []}),
                      "top level takes no field 'instrucions'"),
    "photon-dim": (json.dumps({"version": "1", "subsystems": [
        {"name": "p", "kind": "photon", "dimm": 3}]}),
                   "subsystems[0]: photon takes no field 'dimm'"),
    "photon-with-dim": (json.dumps({"version": "1", "subsystems": [
        {"name": "p", "kind": "photon"}, {"name": "q", "kind": "photon", "dim": 3}]}),
                        "subsystems[1]: photon takes no field 'dim'"),
    "particle-misspelt": (json.dumps({"version": "1", "subsystems": [
        {"name": "b", "kind": "particle", "dims": 3}]}),
                          "subsystems[0]: particle takes no field 'dims'"),
}


@pytest.mark.parametrize("command", ["simulate", "oracle-check"])
@pytest.mark.parametrize("name", sorted(_UNLOADABLE))
def test_unloadable_file_is_one_prefixed_error_line(tmp_path, name, command):
    text, message = _UNLOADABLE[name]
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    proc = run_cli(command, str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"zenosim: error: {message}\n"


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


@pytest.mark.parametrize("values", [
    [0.25, -0.0, 1e-300, -3.5e17, 1 / 3],
    [[0.5, -0.0], [0.0, 0.1], [-1e-13, 2.0]],
    [[0.7071067811865476, -0.0]],
    [[-0.0, -0.0], [-0.0, 0.0]],
    [],
])
def test_emit_json_array_matches_list(values):
    arr = np.array(values, dtype=np.float64)
    assert _float_array(arr) == reference_emit_json(arr.tolist())


def test_emit_json_array_never_prints_negative_zero():
    assert _float_array(np.array([[-0.0, -0.0], [-0.0, 0.5]])) == "[[0,0],[0,0.5]]"


def test_emit_json_complex_view_matches_pairs():
    amps = np.array([[0.5 - 0.0j, -0.0 + 1j], [1 / 3 + 0j, -0.0 - 0.0j]])
    pairs = [[a.real, a.imag] for a in amps.reshape(-1)]
    assert _float_array(amps.reshape(-1, 1).view(np.float64)) == reference_emit_json(pairs)


def test_missing_file_reported(tmp_path):
    proc = run_cli("simulate", str(tmp_path / "no_such_file.json"))
    assert proc.returncode == 1
    assert "cannot read" in proc.stderr


def test_unknown_family_and_bad_profile():
    proc = run_cli("census", "--family", "quantum")
    assert proc.returncode == 1
    assert "unknown family" in proc.stderr
    proc = run_cli("montecarlo", "--family", "memory", "--profile", "1,1,1")
    assert proc.returncode == 1
    assert "five comma-separated" in proc.stderr


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


# sha256 of `montecarlo --family <name>` stdout at one profile, trial count
# and seed; the estimate is a fixed function of the seeded stream
_MONTECARLO_SHA256 = {
    "memory": "a82732902002c0ad9058b6dbb09eb47642b3bdcac4794a0ce2eabb2281aa3926",
    "half-memory-keep-control":
        "e023ff554006a3703e7cdd94e67b6045dff129d2b507615306c8b5ea08358999",
    "half-memory-keep-target":
        "c646a5e0bfeddb7d7b09500092d708e4f7171935ff30270f38d4f17c1554cc8e",
    "direct-cx": "06cea1dad24cde1b61fab9bdd161a478aac78cfa6773a41c785afc7ad9af8b95",
    "direct-cz": "84cfffda0c11207bbb908039f6b498cebbd953178ab3273e516750e98341c7dd",
}


@pytest.mark.parametrize("family", CNOT_FAMILIES)
def test_montecarlo_stdout_is_pinned(family):
    code, stdout, _ = run_main("montecarlo", "--family", family,
                               "--profile", "0.97,0.93,0.9,0.88,0.92",
                               "--trials", "100000", "--seed", "2026")
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == _MONTECARLO_SHA256[family]


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


# sha256 of `simulate --demo <name> --ideal` stdout, as JSON and as CSV
_STDOUT_SHA256 = {
    "bell": ("94a300e5025cc16d16e475d04cbdb6914f2a23281e6626540c8d41d47c3d6f5b",
             "b12a201c4758657b0bd22868697e3615d49de22e76c0b1dd3116026a0b9346a4"),
    "cnot-direct-cx": (
        "ddcf22e20e2f8218f39ee67ea609e9843e39dc4237e07e270238a218d45da658",
        "e5849e018e96970fb6e4735165d18f62bb257b482542a58d085fef2b1f872927"),
    "cnot-direct-cz": (
        "e40c2eb11951701481e548093425fca7fbffa74ff78e3431d221725f17a32534",
        "e5849e018e96970fb6e4735165d18f62bb257b482542a58d085fef2b1f872927"),
    "cnot-half-memory-keep-control": (
        "6b0865b0104a32a7164152b342f88d7c1a38229842b49bd8609753d1e805ef88",
        "9bcfb15827dc8cc90efa98e3db9eef6d94d1f68e285300ecc6675bc23db8d461"),
    "cnot-half-memory-keep-target": (
        "e75fdcdd6198e1aab562d5a6eaab198edc3f1a9e131efd6e67147ee3777083ae",
        "9bcfb15827dc8cc90efa98e3db9eef6d94d1f68e285300ecc6675bc23db8d461"),
    "cnot-memory": (
        "0325b4bca382ac5ad3d03cad578c40d2c3ac3dfdb13616bbce87a297791e6f3f",
        "f124694e225ea3d8e27e5210e4495aa10868ebc2cc71fbc39c9c20992a5ab570"),
    "memory": ("5d5724b7b5dbfebf3ba098ff807bc20797a9acf724e1a8140e9079f4eb3e3c0e",
               "a67bb237cff1f0cda2b423929c85f4a169146ad80357d23c4dc08efd487ed82c"),
    "qicz": ("3b90955311f45566b23ce1e7ce10854b91daa8e6b2ae256e41c0425c9c040a4b",
             "8d6fc590a6e635020f98217d194d54581efafbf5556f8474dc51834baa47df43"),
    "toffoli": ("c838ceb8a1230b4aeba49c97a451339be90aca0742f6f518b6ba3d1d8f9c6f61",
                "8d6fc590a6e635020f98217d194d54581efafbf5556f8474dc51834baa47df43"),
    "wstate-2": ("ae111ab101dd0bc20a36013466693a49fb83f60a219783ca712102eb92e184b7",
                 "a6983140ccafd161085081017e1636cae384f1f05f177f5d93b01b28f2aec4e5"),
    "wstate-3": ("da7323466448167220fb326cd150e0d8fd598f0152d819aaf213f07822a4ac63",
                 "03f09435fabd2ebacd5e4205ea3bd934f3913979f9d2a79659c89ebe05226cdc"),
    "wstate-4": ("166d87d172ad641c4609dd22b6ccc8b31e143c06ceddfb9399c4a65f2eb07eb4",
                 "e366fe6782eb5f1fda0c3a42e99bff64ba5b6ea25081c0dc69d20d62ea765614"),
}


def test_stdout_pins_cover_every_demo():
    assert sorted(_STDOUT_SHA256) == sorted(DEMOS)


@pytest.mark.parametrize("out", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(_STDOUT_SHA256))
def test_simulate_ideal_stdout_is_pinned(name, out):
    code, stdout, _ = run_main("simulate", "--demo", name, "--ideal", "--out", out)
    assert code == 0
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    assert digest == _STDOUT_SHA256[name][out == "csv"]


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
