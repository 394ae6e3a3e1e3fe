"""Command-line front end.

Subcommands: simulate, cnot, census, sweep, montecarlo, oracle-check.
Programs travel as JSON circuit files (version "1"; `cnot` prints them at
full precision); other results are JSON or CSV on stdout, every float at 12
significant digits, never "-0".  `simulate` writes its one-line JSON
document from fixed templates, keys in sorted order: the source, the
params, the total success probability and one object per branch, with the
branch's amplitudes as [re, im] rows.  Identical invocations print
identical bytes.
Exit codes: 0 success, 2 heralded failure or failed verification, 1 bad input.

`main` may be called many times in one process: every call parses with
the same argparse tree, built on the first call, and prints exactly what
a fresh `zenosim` process prints for the same arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import analysis, circuits, oracle
from .circuits import CircuitProgram, Instruction
from .gates import CHARGED, ImperfectionProfile
from .interrogation import PI_OVER_2N, PI_OVER_N, QiParams
from .state import PHOTON_DIM, SubsystemSpec, particle

ORACLE_TOLERANCE = 1e-10
_CELL = "%.12g"  # every printed float: 12 significant digits

_THETA_FLAG = {"pi-over-n": PI_OVER_N, "pi-over-2n": PI_OVER_2N}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this artifact reserves 2 for heralded
    failures, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# circuit file round-trip

def program_to_doc(program: CircuitProgram) -> dict:
    subsystems = []
    for spec in program.subsystems:
        entry = {"name": spec.name, "kind": spec.kind}
        if spec.kind == "particle":
            entry["dim"] = spec.positions()
        subsystems.append(entry)
    instructions = []
    for instr in program.instructions:
        entry = {"op": instr.op}
        for key, value in instr.args.items():
            entry[key] = _plain(value)
        instructions.append(entry)
    return {"version": "1", "subsystems": subsystems,
            "bits": list(program.bits), "instructions": instructions}


def _plain(value):
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _doc_list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list")
    return value


# the fields a circuit file may hold, at its top level and per subsystem kind
_TOP_LEVEL_FIELDS = ("version", "subsystems", "bits", "instructions")
_SUBSYSTEM_FIELDS = {"photon": ("name", "kind"), "particle": ("name", "kind", "dim")}


def _no_other_fields(entry: dict, fields, what: str) -> None:
    for key in entry:
        if key not in fields:
            raise ValueError(f"{what} takes no field {key!r}")


def program_from_doc(doc) -> CircuitProgram:
    if not isinstance(doc, dict):
        raise ValueError("top level must be an object")
    if doc.get("version") != "1":
        raise ValueError(f"unsupported version {doc.get('version')!r}")
    _no_other_fields(doc, _TOP_LEVEL_FIELDS, "top level")
    subsystems = []
    for i, entry in enumerate(_doc_list(doc, "subsystems")):
        if not isinstance(entry, dict):
            raise ValueError(f"subsystems[{i}]: must be an object")
        name, kind = entry.get("name"), entry.get("kind")
        try:  # any kind but "particle" is built as a photon; SubsystemSpec checks it
            subsystems.append(particle(name, entry.get("dim", 2)) if kind == "particle"
                              else SubsystemSpec(name, kind, PHOTON_DIM))
            _no_other_fields(entry, _SUBSYSTEM_FIELDS[kind], kind)
        except ValueError as exc:
            raise ValueError(f"subsystems[{i}]: {exc}") from None
    bits = _doc_list(doc, "bits")
    instructions = []
    for i, entry in enumerate(_doc_list(doc, "instructions")):
        if not isinstance(entry, dict) or "op" not in entry:
            raise ValueError(f"instructions[{i}]: missing op")
        args = {k: v for k, v in entry.items() if k != "op"}
        try:
            instructions.append(Instruction(entry["op"], args))
        except ValueError as exc:
            raise ValueError(f"instructions[{i}]: {exc}") from exc
    return CircuitProgram(tuple(subsystems), tuple(bits), tuple(instructions))


def load_program(path: str) -> CircuitProgram:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"parse error at line {exc.lineno} column {exc.colno}") from exc
    except RecursionError:
        raise ValueError("parse error: arrays or objects nested too deeply") from None
    return program_from_doc(doc)


def serialize_program(program: CircuitProgram) -> str:
    # full-precision floats so parse -> serialize -> parse is the identity
    return json.dumps(program_to_doc(program), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# result emitters

def _float_array(value: np.ndarray) -> str:
    # one template of _CELL slots for the array's shape, brackets and commas
    # in place, filled by one `%`; + 0.0 clears negative zeros as in _float
    template = _CELL
    for size in reversed(value.shape):
        template = "[" + ",".join([template] * size) + "]"
    return template % tuple((value.ravel() + 0.0).tolist())


def _simulate_json(source: str, params: QiParams, results) -> str:
    """The JSON document `simulate` prints, from fixed templates whose keys
    are in sorted order.  Each float slot is _CELL, filled with x + 0.0 as
    in _float; classical values print as integers.  The total is summed
    over Python floats, so a total past the largest double prints inf
    without a numpy overflow warning."""
    branch = ('{"branch_weight":' + _CELL + ',"classical":{%s},"failed":%s,"state":'
              '{"amplitudes":%s,"dims":[%s],"subsystems":[%s]},"success_probability":'
              + _CELL + "}")
    branches = [branch % (
        r.branch_weight + 0.0,
        ",".join(["%s:%d" % (_quote(k), v) for k, v in sorted(r.classical.items())]),
        "true" if r.failed else "false",
        # (n, 2) float64 view of the complex amplitudes: [re, im] rows
        _float_array(r.final_state.amps.reshape(-1, 1).view(np.float64)),
        ",".join([str(s.dim) for s in r.final_state.layout]),
        ",".join([_quote(s.name) for s in r.final_state.layout]),
        r.success_probability + 0.0) for r in results]
    document = ('{"branches":[%s],"params":{"absorb":' + _CELL + ',"cycles":%s,"loss":'
                + _CELL + ',"theta_rule":%s},"source":%s,"success_probability":' + _CELL + "}")
    return document % (
        ",".join(branches), params.absorb_prob + 0.0,
        "null" if params.cycles is None else str(params.cycles), params.cycle_loss + 0.0,
        _quote(params.theta_rule), _quote(source),
        sum([float(r.success_probability) for r in results]) + 0.0)


def _float(x) -> str:
    # adding +0.0 turns a negative zero into 0, so "-0" is never printed
    return _CELL % (float(x) + 0.0)


def _num(x) -> str:
    if isinstance(x, (np.floating, float)):
        return _float(x)
    return str(x)


def _csv_line(values) -> str:
    return ",".join(_num(v) for v in values)


# ---------------------------------------------------------------------------
# argument helpers

def _parse_profile(text: str) -> ImperfectionProfile:
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError("profile needs five comma-separated values: p,q,r,s,eta")
    p, q, r, s, eta = (float(x) for x in parts)
    return ImperfectionProfile(p=p, q=q, r=r, s=s, eta=eta)


def _parse_cycles_list(text: str) -> list[int]:
    values = [int(x) for x in text.split(",") if x]
    if not values or any(v < 1 for v in values):
        raise ValueError("cycle counts must be positive integers")
    return values


def _resolve_family(name: str) -> str:
    if name == "half-memory":
        return circuits.HALF_MEMORY_KEEP_CONTROL
    if name in circuits.CNOT_FAMILIES:
        return name
    raise ValueError(f"unknown family {name!r}")


def _params_from(args) -> QiParams:
    cycles = None if getattr(args, "ideal", False) else args.cycles
    return QiParams(cycles=cycles, theta_rule=_THETA_FLAG[args.theta],
                    absorb_prob=args.absorb, cycle_loss=args.loss)


def _add_param_flags(sub):
    sub.add_argument("--cycles", type=int, default=10000,
                     help="interrogation cycles per gate")
    sub.add_argument("--ideal", action="store_true",
                     help="use the exact many-cycle limit instead")
    sub.add_argument("--theta", choices=sorted(_THETA_FLAG),
                     default="pi-over-n", help="per-cycle rotation rule")
    sub.add_argument("--absorb", type=float, default=1.0,
                     help="absorber interaction probability")
    sub.add_argument("--loss", type=float, default=0.0,
                     help="per-cycle photon loss")


def _verdict(worst: float) -> int:
    """Print PASS or FAIL for the largest oracle deviation and return the
    exit code."""
    if worst <= ORACLE_TOLERANCE:
        print(f"PASS max_deviation<={_num(ORACLE_TOLERANCE)}")
        return 0
    print(f"FAIL max_deviation={_num(worst)}")
    return 2


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> int:
    if (args.file is None) == (args.demo is None):
        raise ValueError("pass exactly one of a circuit file or --demo")
    if args.demo is not None:
        build = circuits.DEMOS.get(args.demo)
        if build is None:
            raise ValueError(f"unknown demo {args.demo!r}; "
                             f"available: {', '.join(sorted(circuits.DEMOS))}")
        program, source = build(), args.demo
    else:
        program, source = load_program(args.file), args.file
    params = _params_from(args)
    if args.branches == "all":
        results = circuits.run_all_branches(program, params)
    else:
        rng = np.random.default_rng(args.seed)
        results = [circuits.run(program, params, rng)]
    if args.out == "csv":
        print("branch,failed,branch_weight,success_probability,classical")
        for i, res in enumerate(results):
            classical = ";".join(f"{k}={v}" for k, v in sorted(res.classical.items()))
            print(_csv_line([i, int(res.failed), res.branch_weight,
                             res.success_probability, classical]))
    else:
        print(_simulate_json(source, params, results))
    return 2 if all(r.failed for r in results) else 0


_VERIFY_INPUTS = [
    ((1, 0), (1, 0), "c=0 t=0"),
    ((1, 0), (0, 1), "c=0 t=1"),
    ((0, 1), (1, 0), "c=1 t=0"),
    ((0, 1), (0, 1), "c=1 t=1"),
    ((1 / np.sqrt(2), 1 / np.sqrt(2)), (1, 0), "c=+ t=0"),
]


def _cmd_cnot(args) -> int:
    family = _resolve_family(args.family)
    if not args.verify:
        print(serialize_program(circuits.cnot_circuit(family)))
        return 0
    params = _params_from(args)
    worst = 0.0
    for control, target, label in _VERIFY_INPUTS:
        program = circuits.cnot_circuit(family, control=control, target=target)
        dev = oracle.compare(program, params)
        worst = max(worst, dev)
        print(f"input {label}: deviation={_num(dev)}")
    return _verdict(worst)


def _cmd_census(args) -> int:
    family = _resolve_family(args.family)
    census = circuits.gate_census(circuits.cnot_circuit(family))
    print(",".join(f"{key}={census[key]}" for key in CHARGED))
    return 0


# the `SweepRow` fields each cycle sweep prints, in CSV column order; the
# header is the field names
_SWEEP_COLUMNS = {"zeno": ("n_cycles", "theta_rule", "absorb", "loss", "survival"),
                  "fidelity": ("n_cycles", "absorb", "loss", "fidelity")}


def _cmd_sweep(args) -> int:
    columns = _SWEEP_COLUMNS.get(args.what)
    if columns:
        # the sweep is looked up per call, so `bench/spans.py` sees it rebound
        sweep = analysis.zeno_sweep if args.what == "zeno" else analysis.fidelity_sweep
        rows = sweep(_parse_cycles_list(args.cycles), theta_rule=_THETA_FLAG[args.theta],
                     absorb=args.absorb, loss=args.loss)
        print(",".join(columns))
        for row in rows:
            print(_csv_line([getattr(row, column) for column in columns]))
        return 0
    # yield: closed-form per family
    profile = _parse_profile(args.profile)
    families = (circuits.CNOT_FAMILIES if args.family == "all"
                else [_resolve_family(args.family)])
    print("family,p,q,r,s,eta,formula")
    for family in families:
        print(_csv_line([family, profile.p, profile.q, profile.r, profile.s,
                         profile.eta, analysis.yield_formula(family, profile)]))
    return 0


def _cmd_montecarlo(args) -> int:
    family = _resolve_family(args.family)
    profile = _parse_profile(args.profile)
    program = circuits.cnot_circuit(family)
    est = analysis.monte_carlo_yield(program, profile, args.trials, args.seed)
    print("family,p,q,r,s,eta,trials,seed,estimate,stderr,formula")
    print(_csv_line([family, profile.p, profile.q, profile.r, profile.s,
                     profile.eta, est.trials, est.master_seed, est.estimate,
                     est.stderr,
                     analysis.census_yield(circuits.gate_census(program), profile)]))
    return 0


def _cmd_oracle_check(args) -> int:
    program = load_program(args.file)
    params = _params_from(args)
    dev = oracle.compare(program, params)
    print(f"deviation={_num(dev)}")
    return _verdict(dev)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing leaves it as it
    was, so every `main` call shares it."""
    parser = _Parser(prog="zenosim",
                     description="Interrogation-circuit simulator")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("simulate", help="run a circuit file or demo")
    p.add_argument("file", nargs="?", help="circuit JSON file")
    p.add_argument("--demo", help="built-in program name")
    _add_param_flags(p)
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--branches", choices=("sample", "all"), default="all")
    p.add_argument("--out", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("cnot", help="emit or verify a CNOT realization")
    p.add_argument("--family", required=True)
    p.add_argument("--verify", action="store_true",
                   help="check against the brute-force runner")
    _add_param_flags(p)
    p.set_defaults(handler=_cmd_cnot)

    p = sub.add_parser("census", help="component counts for a CNOT family")
    p.add_argument("--family", required=True)
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("sweep", help="CSV sweeps of survival/fidelity/yield")
    p.add_argument("--what", choices=("zeno", "fidelity", "yield"),
                   required=True)
    p.add_argument("--cycles", default="2,5,10,20,50,100,200,500,1000",
                   help="comma-separated cycle counts (zeno/fidelity)")
    p.add_argument("--theta", choices=sorted(_THETA_FLAG), default="pi-over-n")
    p.add_argument("--absorb", type=float, default=1.0)
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--profile", default="1,1,1,1,1",
                   help="p,q,r,s,eta (yield)")
    p.add_argument("--family", default="all", help="family or 'all' (yield)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("montecarlo", help="sampled heralded-success yield")
    p.add_argument("--family", required=True)
    p.add_argument("--profile", required=True, help="p,q,r,s,eta")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_montecarlo)

    p = sub.add_parser("oracle-check",
                       help="compare a circuit file against the brute-force runner")
    p.add_argument("file")
    _add_param_flags(p)
    p.set_defaults(handler=_cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ValueError as exc:
        print(f"zenosim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
