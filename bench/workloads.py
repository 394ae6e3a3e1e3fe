"""The three benchmark workloads.

Each workload turns a seed into rounds of op specs (plain tuples; the
library sees only these generated inputs), runs one op, and checks that
op's output.  A round holds a fixed template of ops, so every round costs
about the same and the figures of a run do not depend on where the time
limit falls; the seed fixes every value inside the template and, on
verify-finite and simulate-finite, the order of the ops in a round.

Cycle counts are stratified: the template gives each op one of STRATA
strata of log10 N, 0.3 decades apart, and N is drawn log-uniformly from a
narrow band (BAND) around the stratum's center, so every round reaches
N = 10^4 (the CLI default).  Wider bands let the op latencies of one
stratum swap places with a neighbour's from seed to seed, which moves the
latency percentiles by up to a factor of two.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math

import numpy as np

from zenosim import analysis, circuits, cli, interrogation, oracle
from zenosim.gates import ImperfectionProfile
from zenosim.interrogation import QiParams

ORACLE_TOLERANCE = 1e-10  # the CLI's pass threshold for oracle deviation
CLOSED_FORM_TOLERANCE = 1e-12
FIDELITY_TOLERANCE = 1e-10
# Per-op bound for sampled fractions.  A plain 4 sigma per op would flag a
# correct engine in about one run in forty at ~400 checked ops per run, so
# each op uses the bound that keeps the whole run at the 4 sigma false
# alarm rate (6.3e-5) for up to 1000 ops; the pooled z over all ops of a
# run is held to 4 sigma.
Z_PER_OP = 5.5
Z_POOLED = 4.0

LOG_N_MAX = 4.0
STRATA = 10
STRATUM_WIDTH = 0.3
BAND = 0.01  # half-width, in decades, of the band N is drawn from

IDEAL = QiParams(cycles=None)


class CheckFailed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def draw_cycles(rng, stratum: int) -> int:
    center = LOG_N_MAX - BAND - STRATUM_WIDTH * (STRATA - 1 - stratum)
    return int(round(10 ** rng.uniform(center - BAND, center + BAND)))


def draw_params(rng, slot: int, stratum: int, used) -> QiParams:
    """Finite-depth params for template slot `slot`.  The slot picks whether
    absorb is 1 or below 1 and whether loss is 0 or above 0.  With a `used`
    set, params never repeat; the ideal absorber without loss sits only on
    strata with many distinct N, so a redraw always finds new params."""
    variant = slot % 4 if stratum >= 5 else slot % 3
    for _ in range(1000):
        absorb = 1.0 if variant in (1, 3) else float(rng.uniform(0.9, 1.0))
        loss = float(10 ** rng.uniform(-7, -5)) if variant in (1, 2) else 0.0
        params = QiParams(cycles=draw_cycles(rng, stratum), absorb_prob=absorb,
                          cycle_loss=loss)
        if used is None or params not in used:
            break
    else:
        raise RuntimeError("could not draw unique params")
    if used is not None:
        used.add(params)
    return params


def random_qubit(rng) -> tuple:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return (complex(v[0]), complex(v[1]))


def shuffled_units(rng, units: list) -> list:
    """Flatten units (lists of ops kept together) in a seeded order."""
    order = rng.permutation(len(units))
    return [op for i in order for op in units[i]]


def capture(fn, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn(*args)
    return result, out.getvalue(), err.getvalue()


def interrogation_keys(program, params) -> set:
    """effective_map cache keys the oracle needs for one program."""
    keys = set()
    for instr in program.instructions:
        a = instr.args
        if instr.op == "qicz":
            names, blocking = [a["particle"]], None
        elif instr.op == "qicz_multi":
            names, blocking = list(a["particles"]), a.get("blocking")
        else:
            continue
        positions = tuple(program.spec(n).positions() for n in names)
        if blocking is None:
            blocking = [0] * len(names)
        blocks = tuple((b,) if isinstance(b, int) else tuple(sorted(b))
                       for b in blocking)
        keys.add((params, positions, blocks))
    return keys


class Workload:
    name = ""
    ops_per_round = 0
    trace_rounds = 1  # rounds in the fixed op list of a traced run
    max_rounds = 64  # rounds generated in set-up; the timed loop stops there
    expected_spans = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def make_rounds(self, count: int) -> list:
        return [self.make_round() for _ in range(count)]

    def make_round(self) -> list:
        raise NotImplementedError

    def warmup_op(self):
        raise NotImplementedError

    def run_op(self, op):
        raise NotImplementedError

    def check_op(self, op, output) -> None:
        raise NotImplementedError

    def fingerprint(self, output):
        """A small value equal for equal outputs, used to compare passes."""
        return output

    def implied_cold_maps(self, ops) -> int:
        return 0

    def stdout_bytes(self, fingerprints) -> int:
        return 0

    def begin_pass(self) -> None:
        pass

    def end_pass(self) -> list:
        """Checks over the whole pass; returns failure messages."""
        return []

    def post_checks(self, ops, fingerprints) -> list:
        """Checks after the timed loop; returns failure messages."""
        return []


# ---------------------------------------------------------------------------

class VerifyFinite(Workload):
    """oracle.compare at finite depth: batches of five input pairs for one
    CNOT family at one QiParams, as `cnot --verify` runs them, plus every
    shipped demo once per round."""

    name = "verify-finite"
    max_rounds = 12  # keeps unique params drawable on every stratum
    expected_spans = ("oracle.compare", "oracle.brute_force_run",
                      "circuits.run_all_branches", "interrogation.effective_map",
                      "interrogation.qi_run", "state.apply_local",
                      "state.branch_all", "gates.photon_h")

    def __init__(self, seed):
        super().__init__(seed)
        self.demos = circuits.demo_programs()
        self.used = set()
        self.ops_per_round = 5 * (STRATA - 1) + len(self.demos)

    def make_round(self):
        units = []
        # one batch on each stratum but the lowest; the memory family, whose
        # batch near 10^4 would take 15 s, lands on stratum 5
        for k in range(1, STRATA):
            family = circuits.CNOT_FAMILIES[k % len(circuits.CNOT_FAMILIES)]
            params = draw_params(self.rng, k, k, self.used)
            units.append([("cnot", family, random_qubit(self.rng),
                           random_qubit(self.rng), params) for _ in range(5)])
        for i, demo in enumerate(self.demos):
            # demos take strata 1-5: a cold demo compare near 10^4 costs
            # 1-3 s, and a dozen such single ops would make the top decile
            # of latencies too sparse for a steady p90
            params = draw_params(self.rng, STRATA + i, 1 + i % 5, self.used)
            units.append([("demo", demo, params)])
        return shuffled_units(self.rng, units)

    def warmup_op(self):
        # N = 5 lies below every stratum, so no timed op shares its params
        return ("cnot", circuits.DIRECT_CZ, (1.0, 0.0), (0.0, 1.0),
                QiParams(cycles=5))

    def program(self, op):
        if op[0] == "cnot":
            return circuits.cnot_circuit(op[1], control=op[2], target=op[3])
        return self.demos[op[1]]

    def run_op(self, op):
        return oracle.compare(self.program(op), op[-1])

    def check_op(self, op, output):
        check(output <= ORACLE_TOLERANCE,
              f"{op[:2]} deviation {output:.3e} > {ORACLE_TOLERANCE}")

    def implied_cold_maps(self, ops):
        keys = set()
        for op in ops:
            keys |= interrogation_keys(self.program(op), op[-1])
        return len(keys)


# ---------------------------------------------------------------------------

def _param_flags(params: QiParams) -> list:
    return ["--cycles", str(params.cycles), "--absorb", repr(params.absorb_prob),
            "--loss", repr(params.cycle_loss)]


def zeno_survival(n: int, theta_rule: str, loss: float) -> float:
    """(cos^2(theta) * (1 - loss))^N for an ideal absorber."""
    theta = math.pi / n if theta_rule == "pi-over-n" else math.pi / (2 * n)
    return math.exp(n * (math.log1p(-math.sin(theta) ** 2) + math.log1p(-loss)))


class SimulateFinite(Workload):
    """In-process `zenosim.cli.main` calls: `simulate --demo` over every
    shipped demo, plus a zeno sweep for each theta rule and one fidelity
    sweep, per round."""

    name = "simulate-finite"
    trace_rounds = 3
    expected_spans = ("cli.main", "circuits.run_all_branches",
                      "interrogation.qi_run", "state.apply_local",
                      "state.branch_all", "gates.photon_h",
                      "analysis.zeno_sweep", "analysis.fidelity_sweep")

    def __init__(self, seed):
        super().__init__(seed)
        self.demo_names = list(circuits.demo_programs())
        self.ops_per_round = len(self.demo_names) + 3

    def sweep_op(self, what, slot, theta="pi-over-n"):
        cycles = [draw_cycles(self.rng, k) for k in (1, 3, 5, 7, 9)]
        absorb, loss = 1.0, 0.0
        if what == "zeno":
            if slot % 2:
                loss = float(10 ** self.rng.uniform(-7, -5))
        elif slot % 2:
            absorb = float(self.rng.uniform(0.9, 1.0))
        argv = ["sweep", "--what", what, "--cycles", ",".join(map(str, cycles)),
                "--theta", theta, "--absorb", repr(absorb), "--loss", repr(loss)]
        return ("sweep", what, tuple(argv))

    def make_round(self):
        units = []
        for i, demo in enumerate(self.demo_names):
            params = draw_params(self.rng, i, i % STRATA, None)
            argv = ["simulate", "--demo", demo, *_param_flags(params)]
            units.append([("simulate", demo, tuple(argv), params)])
        # a zeno sweep for each theta rule and one fidelity sweep
        slot = int(self.rng.integers(2))
        units.append([self.sweep_op("zeno", slot, "pi-over-n")])
        units.append([self.sweep_op("zeno", slot + 1, "pi-over-2n")])
        units.append([self.sweep_op("fidelity", slot)])
        return shuffled_units(self.rng, units)

    def warmup_op(self):
        argv = ["simulate", "--demo", "bell", "--cycles", "5"]
        return ("simulate", "bell", tuple(argv), QiParams(cycles=5))

    def run_op(self, op):
        return capture(cli.main, list(op[2]))

    def check_op(self, op, output):
        code, out, err = output
        check(code == 0, f"{op[2]} exited {code}: {err.strip()}")
        if op[0] == "simulate":
            doc = json.loads(out)
            check(len(doc["branches"]) > 0, f"{op[1]}: no branches")
            total = sum(b["success_probability"] for b in doc["branches"])
            check(doc["success_probability"] <= 1 + CLOSED_FORM_TOLERANCE
                  and total <= 1 + CLOSED_FORM_TOLERANCE,
                  f"{op[1]}: success probability {total} > 1")
            return
        argv = op[2]
        cycles = [int(x) for x in argv[argv.index("--cycles") + 1].split(",")]
        lines = out.strip().split("\n")
        header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
        check(len(rows) == len(cycles), f"sweep: {len(rows)} rows for {len(cycles)} N")
        for row in rows:
            rec = dict(zip(header, row))
            if op[1] == "fidelity":
                f = float(rec["fidelity"])
                check(0.0 <= f <= 1 + CLOSED_FORM_TOLERANCE, f"fidelity {f}")
            elif float(rec["absorb"]) == 1.0:
                n = int(rec["n_cycles"])
                theta = argv[argv.index("--theta") + 1]
                want = zeno_survival(n, theta, float(rec["loss"]))
                got = float(rec["survival"])
                check(abs(got - want) <= CLOSED_FORM_TOLERANCE,
                      f"zeno N={n}: survival {got} != closed form {want}")

    def stdout_bytes(self, fingerprints):
        return sum(len(f[1].encode()) for f in fingerprints if f is not None)

    def post_checks(self, ops, fingerprints):
        failures = []
        rng = np.random.default_rng([self.seed, 1])
        i = int(rng.integers(len(ops)))
        if self.run_op(ops[i]) != fingerprints[i]:
            failures.append(f"repeated {ops[i][2]} gave different output")
        demos = circuits.demo_programs()
        sims = [o for o in ops if o[0] == "simulate"]
        for i in rng.choice(len(sims), size=min(2, len(sims)), replace=False):
            _, demo, _, params = sims[int(i)]
            dev = oracle.compare(demos[demo], params)
            if not dev <= ORACLE_TOLERANCE:
                failures.append(f"{demo} at {params}: oracle deviation {dev:.3e}")
        return failures


# ---------------------------------------------------------------------------

# instruction -> profile field charged for it (ImperfectionProfile's model)
_CHARGED = {"photon_h": "p", "qicz": "q", "qicz_multi": "q", "cx": "r",
            "cz": "r", "cphase": "r", "particle_h": "s"}


def success_product(program, profile: ImperfectionProfile) -> float:
    """Probability that every imperfect component of one run works."""
    prob = 1.0
    for instr in program.instructions:
        field = _CHARGED.get(instr.op)
        if instr.op == "measure" and instr.args["basis"] == "photon_computational":
            field = "eta"
        if field:
            prob *= getattr(profile, field)
    return prob


def _logical_block(state, names) -> tuple:
    """Amplitudes of the named photons on their logical levels, in the
    given order, and the squared norm they leave out."""
    order = [state.axis(n) for n in names]
    amps = np.transpose(state.amps, order)[(slice(0, 2),) * len(names)]
    vec = amps.reshape(-1)
    outside = float(np.vdot(state.amps, state.amps).real - np.vdot(vec, vec).real)
    return vec, outside


def expected_output(kind, args) -> tuple:
    """(photon names, ideal output vector) of a sampled program."""
    if kind == "wstate":
        m = args[0]
        vec = np.zeros(2 ** m, dtype=complex)
        vec[[1 << i for i in range(m)]] = 1 / math.sqrt(m)
        return tuple(f"w{i}" for i in range(m)), vec
    if kind == "roundtrip":
        psi, sign = np.asarray(args[0]), args[1]
        return ("pout",), psi if sign == "+" else psi[::-1]
    control, target = np.asarray(args[0]), np.asarray(args[1])
    vec = np.kron(control, target)[[0, 1, 3, 2]]
    return circuits.cnot_output_names(kind), vec


class SampleIdeal(Workload):
    """Exact-limit sampling: batches of `circuits.run` trajectories under a
    seeded ImperfectionProfile, and `analysis.monte_carlo_yield` calls."""

    name = "sample-ideal"
    trace_rounds = 3
    expected_spans = ("circuits.run", "interrogation.qi_run",
                      "state.apply_local", "state.branch_all", "gates.photon_h",
                      "analysis.monte_carlo_yield")
    TRAJECTORIES = 120
    TRIALS = 500_000

    def __init__(self, seed):
        super().__init__(seed)
        self.ops_per_round = len(circuits.CNOT_FAMILIES) * 2 + 5

    def profile(self):
        return ImperfectionProfile(*(float(x) for x in self.rng.uniform(0.93, 0.995, 5)))

    def seed_int(self):
        return int(self.rng.integers(2 ** 31))

    def make_round(self):
        programs = [(f, (random_qubit(self.rng), random_qubit(self.rng)))
                    for f in circuits.CNOT_FAMILIES]
        # both memory signs
        programs += [("roundtrip", (random_qubit(self.rng), sign)) for sign in "+-"]
        programs += [("wstate", (m,)) for m in (2, 3, 4)]
        units = [[("traj", kind, args, self.profile(), self.TRAJECTORIES,
                   self.seed_int())] for kind, args in programs]
        units += [[("mc", f, (random_qubit(self.rng), random_qubit(self.rng)),
                    self.profile(), self.TRIALS, self.seed_int())]
                  for f in circuits.CNOT_FAMILIES]
        # template order, not a seeded one: the process's peak memory is set
        # by the first few Monte Carlo calls, and which families come first
        # moved it by a tenth from seed to seed
        return [op for unit in units for op in unit]

    def warmup_op(self):
        return ("traj", circuits.DIRECT_CX, ((1.0, 0.0), (1.0, 0.0)),
                ImperfectionProfile(0.9, 0.9, 0.9, 0.9, 0.9), 4, 0)

    @staticmethod
    def program(kind, args):
        if kind == "wstate":
            return circuits.w_state_generator(args[0])
        if kind == "roundtrip":
            return circuits.memory_roundtrip(psi=args[0], sign=args[1])
        return circuits.cnot_circuit(kind, control=args[0], target=args[1])

    def run_op(self, op):
        kind, args, profile = op[1], op[2], op[3]
        program = self.program(kind, args)
        if op[0] == "mc":
            return analysis.monte_carlo_yield(program, profile, op[4], op[5])
        rng = np.random.default_rng(op[5])
        return [circuits.run(program, IDEAL, rng, profile) for _ in range(op[4])]

    def fingerprint(self, output):
        if not isinstance(output, list):
            return (output.estimate, output.stderr, output.trials)
        h = hashlib.sha256()
        for res in output:
            h.update(repr((res.failed, sorted(res.classical.items()),
                           res.success_probability)).encode())
            h.update(res.final_state.amps.tobytes())
        return h.hexdigest()

    def begin_pass(self):
        self.pooled = {"traj": [0.0, 0.0], "mc": [0.0, 0.0]}

    def _z(self, kind, excess, count, prob):
        var = count * prob * (1 - prob)
        self.pooled[kind][0] += excess
        self.pooled[kind][1] += var
        return abs(excess) / math.sqrt(var)

    def check_op(self, op, output):
        kind, args, profile, count = op[1], op[2], op[3], op[4]
        program = self.program(kind, args)
        prob = success_product(program, profile)
        if op[0] == "mc":
            formula = analysis.yield_formula(kind, profile)
            check(abs(formula - prob) <= CLOSED_FORM_TOLERANCE,
                  f"{kind}: yield_formula {formula} != component product {prob}")
            z = self._z("mc", (output.estimate - formula) * count, count, formula)
            check(z <= Z_PER_OP, f"{kind}: yield estimate {z:.2f} sigma off")
            return
        successes = sum(not r.failed for r in output)
        z = self._z("traj", successes - count * prob, count, prob)
        check(z <= Z_PER_OP, f"{kind}: heralded success {z:.2f} sigma off")
        names, want = expected_output(kind, args)
        for res in output:
            if res.failed:
                continue
            got, outside = _logical_block(res.final_state, names)
            overlap = abs(np.vdot(want, got)) ** 2 / np.vdot(got, got).real
            check(overlap >= 1 - FIDELITY_TOLERANCE and outside <= CLOSED_FORM_TOLERANCE,
                  f"{kind}: output fidelity {overlap} (outside weight {outside})")

    def end_pass(self):
        failures = []
        for kind, (excess, var) in self.pooled.items():
            if var > 0 and abs(excess) / math.sqrt(var) > Z_POOLED:
                failures.append(f"pooled {kind} success {excess / math.sqrt(var):.2f} sigma off")
        return failures


WORKLOADS = {w.name: w for w in (VerifyFinite, SimulateFinite, SampleIdeal)}


def clear_caches() -> None:
    """Empty zenosim's in-process caches, as a fresh CLI process has them."""
    interrogation._effective_map_cached.cache_clear()


def cache_misses() -> int:
    return interrogation._effective_map_cached.cache_info().misses
