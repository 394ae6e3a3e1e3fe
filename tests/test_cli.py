"""End-to-end command-line checks; everything runs in a subprocess."""

import json
import subprocess
import sys

import numpy as np
import pytest

from zenosim.cli import (
    _csv_line,
    _emit_json,
    load_program,
    program_from_doc,
    program_to_doc,
    serialize_program,
)
from zenosim.circuits import DEMOS, bell_generator, cnot_circuit, w_state_generator

CLI = [sys.executable, "-m", "zenosim.cli"]


def run_cli(*argv, env=None):
    return subprocess.run(CLI + list(argv), capture_output=True, text=True,
                          env=env, timeout=300)


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


def test_simulate_empty_program():
    path = "/tmp/zenosim_empty.json"
    with open(path, "w") as fh:
        json.dump({"version": "1", "subsystems": [], "bits": [],
                   "instructions": []}, fh)
    proc = run_cli("simulate", path, "--ideal")
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


def test_simulate_heralded_failure_exits_two():
    path = "/tmp/zenosim_fail.json"
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


def test_simulate_requires_one_source():
    both = run_cli("simulate", "/tmp/zenosim_empty.json", "--demo", "bell")
    neither = run_cli("simulate")
    for proc in (both, neither):
        assert proc.returncode == 1
        assert "error" in proc.stderr


def test_simulate_unknown_demo():
    proc = run_cli("simulate", "--demo", "nope")
    assert proc.returncode == 1
    assert "unknown demo" in proc.stderr


def test_parse_error_reports_position():
    path = "/tmp/zenosim_broken.json"
    with open(path, "w") as fh:
        fh.write('{"version": "1",\n  "subsystems": [}\n')
    proc = run_cli("simulate", path)
    assert proc.returncode == 1
    assert "parse error at line 2 column" in proc.stderr


def test_unknown_op_reports_index():
    path = "/tmp/zenosim_badop.json"
    with open(path, "w") as fh:
        json.dump({"version": "1", "subsystems": [], "bits": [],
                   "instructions": [{"op": "warp"}]}, fh)
    proc = run_cli("simulate", path)
    assert proc.returncode == 1
    assert "instructions[0]: unknown op" in proc.stderr


@pytest.mark.parametrize("doc, message", [
    ({"version": "1", "subsystems": [{"name": "p", "kind": "photon"}],
      "bits": [], "instructions": [{"op": "photon_h"}]},
     "instructions[0]: photon_h needs argument 'target'"),
    ({"version": "1", "subsystems": [], "bits": 5, "instructions": []},
     "bits must be a list of strings"),
    ({"version": "1", "instructions": [{"op": ["photon_h"]}]},
     "instructions[0]: unknown op ['photon_h']"),
    ({"version": "1", "subsystems": [{"name": "p", "kind": "photon"}],
      "instructions": [{"op": "prepare", "target": "p"},
                       {"op": "photon_h", "target": ["p"]}]},
     "instructions[1]: photon_h argument 'target' must be a subsystem name, got ['p']"),
    ({"version": "1", "subsystems": [{"name": "b", "kind": "particle", "dim": [2]}]},
     "subsystems[0]: dim must be an integer, got [2]"),
    ({"version": "1", "subsystems": [{"name": "b", "kind": "particle", "dim": 2.7}]},
     "subsystems[0]: dim must be an integer, got 2.7"),
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
     "level -1 out of range for 'b'"),
    ({"version": "1", "subsystems": [{"name": "b", "kind": "particle"}],
      "instructions": [{"op": "prepare", "target": "b", "level": 3}]},
     "level 3 out of range for 'b'"),
])
def test_malformed_file_is_one_error_line(tmp_path, doc, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("simulate", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"zenosim: error: {message}\n"


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


def test_emitters_never_print_negative_zero():
    assert _emit_json({"a": -0.0, "b": [np.float64(-0.0), 0.0, -1.5]}) == \
        '{"a":0,"b":[0,0,-1.5]}'
    assert _csv_line([-0.0, np.float64(-0.0), 2, "x"]) == "0,0,2,x"


def test_missing_file_reported():
    proc = run_cli("simulate", "/tmp/zenosim_no_such_file.json")
    assert proc.returncode == 1
    assert "cannot read" in proc.stderr


def test_unknown_family_and_bad_profile():
    proc = run_cli("census", "--family", "quantum")
    assert proc.returncode == 1
    assert "unknown family" in proc.stderr
    proc = run_cli("montecarlo", "--family", "memory", "--profile", "1,1,1")
    assert proc.returncode == 1
    assert "five comma-separated" in proc.stderr


def test_cnot_emit_simulate_and_oracle_check():
    emit = run_cli("cnot", "--family", "direct-cx")
    assert emit.returncode == 0
    path = "/tmp/zenosim_cnot.json"
    with open(path, "w") as fh:
        fh.write(emit.stdout)
    sim = run_cli("simulate", path, "--ideal")
    assert sim.returncode == 0
    check = run_cli("oracle-check", path, "--ideal")
    assert check.returncode == 0
    lines = check.stdout.strip().splitlines()
    assert lines[0].startswith("deviation=")
    assert lines[1].startswith("PASS max_deviation<=")


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


def test_sweep_fidelity_csv():
    proc = run_cli("sweep", "--what", "fidelity", "--cycles", "5,50")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "n_cycles,absorb,loss,fidelity"
    assert len(lines) == 3


def test_sweep_yield_csv():
    proc = run_cli("sweep", "--what", "yield", "--profile", "0.9,0.9,0.9,0.9,0.9")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "family,p,q,r,s,eta,formula"
    assert len(lines) == 6
    assert lines[1].startswith("memory,0.9,0.9,0.9,0.9,0.9,")


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


def test_repeated_invocations_byte_identical():
    a = run_cli("simulate", "--demo", "wstate-3", "--ideal")
    b = run_cli("simulate", "--demo", "wstate-3", "--ideal")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0



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
