"""A fixed catalogue of mutants, each killed by a named check.

Each row names a function (or a class's method, as `Class.method`), an
exact snippet of its source, the snippet's replacement and a killer: a
plain check that the other test files also run, or one written here.  The
test finds the snippet in the function's source (exactly once, so a
refactor that moves the code fails here instead of skipping the mutant),
compiles the mutated function in the module's globals, binds it in every
zenosim module and every test module that holds the original (a method:
on its class), and asserts that the killer fails.  A mutant that no check
catches is a blind spot of the suite, so a row is never entered as an
expected survivor."""

import __future__
import contextlib
import inspect
import io
import itertools
import json
import os
import sys
import tempfile
import textwrap
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from zenosim import analysis, circuits, cli, gates, interrogation, oracle, state
from zenosim.circuits import DEMOS, CircuitProgram, Instruction
from zenosim.interrogation import effective_map
from zenosim.state import new_state, photon

import test_analysis
import test_circuits
import test_claims
import test_cli
import test_emit
import test_gates
import test_interrogation
import test_oracle
import test_reference_walk
import test_state
from helpers import FAILURE_LEAVES
from test_circuits import (
    _GATE_MISFITS,
    _KIND_SETUP,
    _KIND_SUBSYSTEMS,
    assert_spoiled_results_leave_later_runs_alone,
)
from test_cli import (
    _UNLOADABLE,
    _WRONG_KIND_DOCS,
    MALFORMED,
    assert_file_is_one_error_line,
    assert_verification_fails_on_a_broken_engine,
)
from test_interrogation import _MAP_LAYOUTS, _map_by_columns, _map_grid
from test_reference_powers import assert_power_stacks_match_the_50_digit_reference
from test_sampling import (
    PROFILED,
    assert_profiled_runs_follow_their_charges,
    assert_sampled_leaves_follow_branch_weights,
)
from test_walk import PARAMS, _assert_same_walk, register_program


def _born_frequencies() -> None:
    assert_sampled_leaves_follow_branch_weights("uneven-cascade")


def _profiled_frequencies() -> None:
    for name in PROFILED:
        assert_profiled_runs_follow_their_charges(name)


def _spoiled_ends_stay_apart() -> None:
    assert_spoiled_results_leave_later_runs_alone("failure-leaves")


def _stacks_match_the_50_digit_reference() -> None:
    # the oracle reads the engine's own map at finite depth, so cycle
    # mutants are checked against the 50-digit reference instead
    assert_power_stacks_match_the_50_digit_reference(10**4)


def _cnot_leaves_match_the_50_digit_walk() -> None:
    # each case builds its own params, so no stack that an unmutated run
    # kept on them is read
    test_reference_walk.assert_demo_matches_the_walk("cnot-direct-cz", 333)


def _bell_leaves_match_the_50_digit_walk_in_the_limit() -> None:
    test_reference_walk.assert_demo_matches_the_walk("bell", None)


# the test modules' own tests, called through their modules so that pytest
# does not collect them here a second time

def _open_sign_flip_after_one_cycle() -> None:
    test_interrogation.test_open_run_is_exact_sign_flip(1)


def _open_sign_flip_after_many_cycles() -> None:
    test_interrogation.test_open_run_is_exact_sign_flip(10**5)


def _cnot_failure_follows_the_law() -> None:
    test_claims.test_failure_falls_as_a_pi_squared_over_n("direct-cz")


def _toffoli_failure_follows_the_law() -> None:
    # the Toffoli's one interrogation lists two particles, so it reads T_2^N
    test_claims.test_failure_falls_as_a_pi_squared_over_n("toffoli")


def _yields_match_the_literal_reference() -> None:
    for k, trials, chances in itertools.product(
            test_analysis._CHAIN_LENGTHS, test_analysis._TRIAL_COUNTS,
            test_analysis._LITERAL_PROFILES):
        test_analysis.test_monte_carlo_matches_literal_reference(k, trials, chances)


def _draw_limits_split_the_words() -> None:
    for p in test_analysis._LIMIT_CHANCES:
        test_analysis.test_draw_limit_is_the_last_word_that_passes(p)


def _finite_stdout_is_pinned() -> None:
    for name, flags in sorted(test_emit._FINITE_SHA256):
        test_emit.test_simulate_finite_stdout_is_pinned(name, flags)


def _map_is_its_column_runs() -> None:
    positions, blocking = _MAP_LAYOUTS[3]
    for params in _map_grid():
        got = effective_map(params, len(positions), positions, blocking)
        assert got.tobytes() == _map_by_columns(params, positions, blocking).tobytes()


def _bystanders_are_left_alone() -> None:
    for params in (interrogation.QiParams(cycles=None),
                   interrogation.QiParams(cycles=3, absorb_prob=0.9)):
        test_interrogation.test_run_leaves_other_subsystems_alone(params)


def _limit_under_keep_matches_deep_runs() -> None:
    # the map memo is emptied before and after, so that no map built by
    # the other side of the mutation is read
    interrogation._effective_map_cached.cache_clear()
    try:
        for absorb in (1.0, 0.5):
            test_interrogation.test_limit_under_keep_matches_ten_million_cycles(absorb)
    finally:
        interrogation._effective_map_cached.cache_clear()


def _walk_with_failure_leaves() -> None:
    _assert_same_walk(DEMOS["cnot-memory"](), FAILURE_LEAVES)


def _oracle_leaves_match_the_per_branch_walk() -> None:
    test_oracle.test_leaves_are_byte_equal_to_the_per_branch_walk(
        "cnot-direct-cx", "n3", interrogation.ROUTE_TO_SINK)


def _pauli_steps_match_the_product() -> None:
    for name in sorted(test_gates._PAULIS):
        test_gates.test_pauli_steps_have_the_values_of_the_literal_product(name)


def _corrections_leave_unselected_rows_alone() -> None:
    for gate in ("cx", "cz"):
        test_gates.test_corrections_act_on_every_subset_of_rows_as_the_literal_product(gate)


def _photon_projections_match_tensordot() -> None:
    # the photon's unit outcomes read levels 0 and 1, so one level higher
    # is still a level; a particle's exploded outcome would read past the axis
    for target in ("p", "q"):
        test_state.test_branch_all_is_bit_identical_to_tensordot(
            target, state.PHOTON_COMPUTATIONAL)


def _unit_projections_match_the_product() -> None:
    for target, basis in (("p", state.PHOTON_COMPUTATIONAL), ("x", state.QUDIT_POSITION)):
        test_state.test_unit_projections_have_the_values_of_the_literal_product(target, basis)


def _walk_prepares_its_own_vectors() -> None:
    _escapes_as_a_failure(_walk_with_failure_leaves)


def _register_walk_matches_the_recursive_walk() -> None:
    # a 15-value bit measured after 2-value ones: each failure label differs
    # from the one before it
    _assert_same_walk(register_program(), PARAMS["exact"])


def _measures_bind_the_rescanned_batches() -> None:
    for program in [build() for build in DEMOS.values()] + [register_program()]:
        test_circuits.assert_measures_bind_their_labels_and_batches(program)


def _multi_valued_controls_are_refused() -> None:
    for op in ("cx", "cz"):
        try:
            test_circuits.test_binary_control_on_multi_valued_bit_rejected(op)
        except pytest.fail.Exception as exc:  # a program pytest.raises saw load
            raise AssertionError(str(exc)) from exc


def _cnot_families_are_cnots() -> None:
    for family in circuits.CNOT_FAMILIES:
        test_claims.test_cnot_family_is_a_cnot_on_criterion_6_inputs(family, test_claims.IDEAL)


def _toffoli_is_a_ccnot() -> None:
    test_claims.test_toffoli_is_a_ccnot_on_superposed_inputs(test_claims.IDEAL)


def _yield_exponents_are_the_written_ones() -> None:
    for family in circuits.CNOT_FAMILIES:
        test_analysis.test_yield_formula_matches_circuit_census(family)


def _yields_multiply_in_the_written_order() -> None:
    for family in circuits.CNOT_FAMILIES:
        test_analysis.test_yield_formula_is_the_written_product_to_the_bit(family)


def _arrays_print_like_their_lists() -> None:
    for shape in ((3, 0), (2, 0, 3), (1, 2, 0)):
        test_emit.test_empty_inner_axis_prints_like_its_list(shape)
    amps = np.arange(12.0).reshape(3, 2, 2)
    assert cli._float_array(amps) == test_emit.reference_emit_json(amps)


def _simulate_matches_reference_rendering() -> None:
    test_emit.test_simulate_stdout_matches_reference_rendering("bell", "17")


def _oracle_agrees_on_the_w_states() -> None:
    for m in (2, 3, 4):
        assert oracle.compare(DEMOS[f"wstate-{m}"](), interrogation.QiParams()) <= 1e-10, m


def _oracle_agrees_on_the_cnot_families() -> None:
    for family in circuits.CNOT_FAMILIES:
        deviation = oracle.compare(DEMOS[f"cnot-{family}"](), interrogation.QiParams())
        assert deviation <= 1e-10, family


def _oracle_pairs_failure_leaves() -> None:
    # the memory CNOT measures in the photon and pm bases, whose outcomes
    # the oracle builds at import, and the W state in a position basis,
    # whose outcomes each walk builds
    for name in ("cnot-memory", "wstate-3"):
        try:
            deviation = oracle.compare(DEMOS[name](), FAILURE_LEAVES)
        except ValueError as exc:  # branches that do not pair fail the check
            raise AssertionError(str(exc)) from exc
        assert deviation <= 1e-10, name


def _unknown_argument_is_rejected() -> None:
    doc = {"version": "1", "subsystems": [{"name": "p", "kind": "photon"}], "bits": [],
           "instructions": [{"op": "prepare", "target": "p", "levle": 1}]}
    try:
        cli.program_from_doc(doc)
    except ValueError as exc:
        assert str(exc) == "instructions[0]: prepare takes no argument 'levle'"
    else:
        raise AssertionError("a misspelt argument loaded")


def _deeply_nested_file_is_one_error_line() -> None:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "nested.json")
        with open(path, "w") as fh:
            fh.write("[" * 100_000)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["simulate", path])
        except Exception as exc:  # an exception that escapes main fails the check
            raise AssertionError(f"{type(exc).__name__} escaped main") from exc
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue() == ("zenosim: error: parse error: arrays or objects "
                              "nested too deeply\n")


def _broken_engine_fails_verification() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        assert_verification_fails_on_a_broken_engine(Path(tmp))


def _escapes_as_a_failure(check: Callable[[], None]) -> None:
    """`check`, with an exception other than an `AssertionError` that
    escapes it failing it as one."""
    try:
        check()
    except AssertionError:
        raise
    except Exception as exc:
        raise AssertionError(f"{type(exc).__name__} escaped: {exc}") from exc


def _files_are_one_error_line(cases) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for text, message in cases:
            _escapes_as_a_failure(lambda: assert_file_is_one_error_line(
                Path(tmp) / "malformed.json", text, message))


def _subsystem_and_bit_files_are_one_error_line() -> None:
    # every malformed file whose error names one subsystem or bit
    _files_are_one_error_line([(json.dumps(doc), message) for doc, message in MALFORMED
                               if message.startswith(("subsystems[", "bits["))])


def _instruction_files_are_one_error_line() -> None:
    # every malformed file whose error names one instruction
    _files_are_one_error_line([(json.dumps(doc), message) for doc, message in MALFORMED
                               if message.startswith("instructions[")])


def _oracle_cap_names_its_instruction() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        test_cli.test_oracle_check_refuses_a_state_past_its_dimension_cap(Path(tmp))


def _misspelt_field_files_are_one_error_line() -> None:
    _files_are_one_error_line([(text, message) for text, message in _UNLOADABLE.values()
                               if "takes no field" in message])


def _particle_guard_holds() -> None:
    # each engine step that counts a particle's positions, handed a photon
    spec = photon("p")
    one_photon = new_state([spec], [0])
    for call in (lambda: gates.prepare_particle_uniform(spec),
                 lambda: gates.particle_h(one_photon, "p"),
                 lambda: interrogation.wiring([spec])):
        try:
            call()
        except ValueError as exc:
            assert str(exc) == "a position count needs a particle, but 'p' is a photon", exc
        else:
            raise AssertionError("a photon passed for a particle")


def _library_numbers_are_checked() -> None:
    # each number rule of the library door, on a value that only it refuses
    # or converts
    for make, message in (
            (lambda: interrogation.QiParams(cycle_loss=1.0), "cycle_loss must lie in [0, 1)"),
            (lambda: interrogation.QiParams(absorb_prob=np.float32("inf")),
             "absorb_prob must be a number, got np.float32(inf)")):
        try:
            make()
        except ValueError as exc:
            assert str(exc) == message, exc
        else:
            raise AssertionError(f"{message!r} was not raised")
    assert type(interrogation.QiParams(cycles=np.int32(5)).cycles) is int
    # a float16 chance is worked at double width: its square, about 1e-8,
    # does not underflow to 0
    narrow = gates.ImperfectionProfile(eta=np.float16(1e-4))
    assert float(analysis.yield_formula("memory", narrow)) == analysis.yield_formula(
        "memory", gates.ImperfectionProfile(eta=float(np.float16(1e-4)))) > 0.0
    got = analysis.monte_carlo_yield(circuits.cnot_circuit("memory"),
                                     gates.ImperfectionProfile(p=0.9), np.int32(10), 1)
    assert type(got.trials) is int


def _gate_misfits_are_rejected() -> None:
    # every row of the gate-kind table at load, then the wrong-kind files
    for op, args, bad, needs, what in _GATE_MISFITS:
        name = args[bad][-1] if bad == "particles" else args[bad]
        try:
            CircuitProgram(_KIND_SUBSYSTEMS, ("m",), _KIND_SETUP + (Instruction(op, args),))
        except ValueError as exc:
            assert str(exc) == (f"instructions[6]: {op} argument '{bad}' needs {needs}, "
                                f"but '{name}' is {what}"), exc
        else:
            raise AssertionError(f"{op} on {what} loaded")
    _files_are_one_error_line([(json.dumps(doc), message)
                               for doc, message in _WRONG_KIND_DOCS.values()])


_TESTS = Path(__file__).parent


class Mutant(NamedTuple):
    module: object
    function: str
    snippet: str
    replacement: str
    killer: Callable[[], None]


MUTANTS = {
    "born-squared-uniform": Mutant(
        state, "sample_branch", "rng.random() * total", "rng.random() ** 2 * total",
        _born_frequencies),
    "born-even-draw": Mutant(
        state, "sample_branch", "bisect_right(sums, rng.random() * total)",
        "int(rng.random() * (len(sums) + 1))", _born_frequencies),
    "profile-charge-squared": Mutant(
        circuits, "run", "getattr(profile, charge)", "getattr(profile, charge) ** 2",
        _profiled_frequencies),
    "profile-first-charge-only": Mutant(
        circuits, "run", "in seg.charged:", "in seg.charged[:1]:", _profiled_frequencies),
    "copy-shares-its-array": Mutant(
        state, "StateVector.copy", "self.amps.copy()", "self.amps", _spoiled_ends_stay_apart),
    "kept-end-returned-uncopied": Mutant(
        circuits, "run", "leaf.final_state.copy()", "leaf.final_state",
        _spoiled_ends_stay_apart),
    "failed-end-counts-its-weight": Mutant(
        circuits, "_failed", "RunResult(state, dict(record), 0.0, True, weight)",
        "RunResult(state, dict(record), weight, True, weight)",
        _walk_with_failure_leaves),
    "leaf-success-drops-its-weight": Mutant(
        circuits, "_segment", "w * norm_sq(view)", "norm_sq(view)",
        _walk_with_failure_leaves),
    "leaves-left-in-walk-order": Mutant(
        circuits, "run_all_branches", "leaves.sort(key=lambda leaf: leaf[0])", "pass",
        _oracle_pairs_failure_leaves),
    "unknown-argument-accepted": Mutant(
        circuits, "Instruction.__post_init__",
        'raise ValueError(f"{self.op} takes no argument {name!r}")', "pass",
        _unknown_argument_is_rejected),
    "blocked-stacks-scaled": Mutant(
        interrogation, "_cycle_powers", "return power", "power[1:] *= 0.99; return power",
        _stacks_match_the_50_digit_reference),
    "multiply-blocked-stacks-scaled": Mutant(
        interrogation, "_cycle_powers", "return power", "power[2:] *= 0.99; return power",
        _stacks_match_the_50_digit_reference),
    "blocked-stacks-scaled-against-the-law": Mutant(
        interrogation, "_cycle_powers", "return power", "power[1:] *= 0.99; return power",
        _cnot_failure_follows_the_law),
    "multiply-blocked-stacks-scaled-against-the-law": Mutant(
        interrogation, "_cycle_powers", "return power", "power[2:] *= 0.99; return power",
        _toffoli_failure_follows_the_law),
    "blocked-stacks-scaled-against-the-walk": Mutant(
        interrogation, "_cycle_powers", "return power", "power[1:] *= 0.99; return power",
        _cnot_leaves_match_the_50_digit_walk),
    "open-angle-squared-not-exact": Mutant(
        interrogation, "_cycle_powers",
        "power[0] = keep_loss ** m * np.array([[np.cos(phi), -np.sin(phi)],\n"
        "                                          [np.sin(phi), np.cos(phi)]])", "pass",
        _open_sign_flip_after_many_cycles),
    "absorbed-before-rotated": Mutant(
        interrogation, "_cycle_powers",
        "step[:, 0, 0], step[:, 0, 1] = c, -s\n"
        "    step[:, 1, 0], step[:, 1, 1] = s * keep_eps, c * keep_eps",
        "step[:, 0, 0], step[:, 0, 1] = c, -s * keep_eps\n"
        "    step[:, 1, 0], step[:, 1, 1] = s, c * keep_eps",
        test_interrogation.test_partial_absorber_splits_vertical_weight),
    "bystander-exploded-level-pruned": Mutant(
        interrogation, "qi_run",
        "for rest_axis, _, exploded in plan:\n"
        "        work[(slice(None),) * (rest_axis + 1) + (exploded,)] = 0.0",
        "others = [spec for spec in state.layout if spec.name != photon]\n"
        "    for i, spec in enumerate(others):\n"
        "        if spec.kind == 'particle':\n"
        "            work[(slice(None),) * (i + 1 + (state.batch is not None))\n"
        "                 + (spec.dim - 1,)] = 0.0",
        _bystanders_are_left_alone),
    "residual-v-kept-under-route-to-sink": Mutant(
        interrogation, "qi_run", "work[PH_ONE_V] = 0.0", "pass",
        _open_sign_flip_after_one_cycle),
    "limit-open-v-unturned": Mutant(
        interrogation, "_limit_powers", "power[0, 0, 0] = power[0, 1, 1] = -1",
        "power[0, 0, 0] = -1", _limit_under_keep_matches_deep_runs),
    "limit-blocked-v-kept": Mutant(
        interrogation, "_limit_powers", "power[:, 0, 0] = 1",
        "power[:, 0, 0] = power[:, 1, 1] = 1", _limit_under_keep_matches_deep_runs),
    "blocked-count-exponent-dropped": Mutant(
        interrogation, "_cycle_powers", "** np.arange(kmax + 1)",
        "** np.minimum(np.arange(kmax + 1), 1)", _stacks_match_the_50_digit_reference),
    # the rows memo keyed without the blocking sets: the W states' three
    # interrogations, which block one particle at three different position
    # sets, all get the first one's rows
    "rows-key-without-blocking": Mutant(
        interrogation, "_run_cycles", "key = (h.ndim, plan)",
        "key = (h.ndim, tuple((axis, n) for axis, _, n in plan))", _finite_stdout_is_pinned),
    # the gather index keyed without the axes: every gate on a live shape
    # gets the index of the first gate on that shape (the direct CNOT gathers
    # one 4 x 4 x 3 shape in four orders, led by three different subsystems)
    "gather-index-key-without-axes": Mutant(
        oracle, "_gate", "_gather_index(shape, tuple(axes))",
        "_gather_index(shape, _gate.__dict__.setdefault(shape, tuple(axes)))",
        _oracle_leaves_match_the_per_branch_walk),
    # a batched X indexed as if the state had no branch axis: it swaps along
    # the axis before the target's
    "pauli-x-without-branch-offset": Mutant(
        gates, "_pauli", "out[at + (0,)], out[at + (1,)] = amps[at + (1,)], amps[at + (0,)]",
        "out[at[len(lead):] + (0,)], out[at[len(lead):] + (1,)] = "
        "amps[at[len(lead):] + (1,)], amps[at[len(lead):] + (0,)]",
        _pauli_steps_match_the_product),
    # H's 1/sqrt(2) in single precision, about 1e-8 low: still a
    # contraction, so only a check of the values sees it (H without its
    # 1/sqrt(2) is no contraction, and `apply_local` refuses it first)
    "photon-h-in-single-precision": Mutant(
        gates, "photon_h", "apply_local(state, name, _PHOTON_H)",
        "apply_local(state, name, _PHOTON_H.astype(np.complex64))",
        _bell_leaves_match_the_50_digit_walk_in_the_limit),
    "pauli-z-negates-level-0": Mutant(
        gates, "_pauli", "out[at + (1,)] = -amps[at + (1,)]", "out[at + (0,)] = -amps[at + (0,)]",
        _pauli_steps_match_the_product),
    "correction-on-every-row": Mutant(
        gates, "classically_controlled", "slice(None) if len(on) == len(values) else on",
        "slice(None)", _corrections_leave_unselected_rows_alone),
    # the oracle's rule, which agrees on every value a program can record
    "correction-fires-on-the-low-bit": Mutant(
        gates, "classically_controlled", "v != 0", "v & 1",
        test_gates.assert_corrections_fire_on_any_nonzero_value),
    # the moved amplitudes keep the signs of their zeros, which the
    # product writes as +0.0
    "pauli-zero-signs-kept": Mutant(
        gates, "_pauli", "out[lead] += 0.0", "pass", _pauli_steps_match_the_product),
    "unit-projection-zero-signs-kept": Mutant(
        state, "branch_all", "columns[..., outcome, :] + 0.0", "columns[..., outcome, :].copy()",
        _unit_projections_match_the_product),
    "unit-projection-one-level-high": Mutant(
        state, "branch_all", "columns[..., outcome, :] + 0.0",
        "columns[..., outcome + 1, :] + 0.0", _photon_projections_match_tensordot),
    # every prepare's plan entry keeps the first prepare's vector with its
    # own subsystem, so the walk adds that vector (the op table holds the
    # bind hooks themselves, so the bound-field rows mutate where the plan
    # is made)
    "prepare-reads-another-vector": Mutant(
        circuits, "validate_program", "plan.append(bound)",
        'plan.append(bound if instr.op != "prepare" else (bound[0], next(\n'
        '                (b for i, b in zip(program.instructions, plan) if i.op == "prepare"),\n'
        "                bound)[1]))",
        _walk_prepares_its_own_vectors),
    "measure-binds-the-previous-failure-label": Mutant(
        circuits, "validate_program", "bound = row.bind and row.bind(instr.args, program, arity)",
        "bound = row.bind and row.bind(instr.args, program, arity)\n"
        '            if instr.op == "measure" and len(ends) > 1:\n'
        "                bound = plan[ends[-2][0]]",
        _register_walk_matches_the_recursive_walk),
    # each measure's batch sized by the live state where the segment before
    # it ends, not where its own does
    "batch-from-the-previous-segment": Mutant(
        circuits, "validate_program", "for (opened, _), (end, peak) in zip(ends, ends[1:]):",
        "for (opened, peak), (end, _) in zip(ends, ends[1:]):",
        _measures_bind_the_rescanned_batches),
    "xor-binds-two-values": Mutant(
        circuits, "validate_program", "arity[written] = bound",
        'arity[written] = bound if instr.op == "measure" else 2',
        _multi_valued_controls_are_refused),
    # CNOT (Z x I): wrong by a phase on the control, which basis inputs miss
    "direct-cx-control-phase": Mutant(
        circuits, "cnot_circuit",
        '_ins("prepare", target="m", pm="+"),\n            *_cz_to_cnot("t", "m"),',
        '_ins("prepare", target="m", pm="+"),\n            _ins("photon_z", target="c"),\n'
        '            *_cz_to_cnot("t", "m"),',
        _cnot_families_are_cnots),
    "toffoli-control-phase": Mutant(
        circuits, "toffoli", '_ins("qicz_multi", photon="t", particles=["c1", "c2"]),',
        '_ins("qicz_multi", photon="t", particles=["c1", "c2"]),\n'
        '            _ins("particle_z", target="c1"),',
        _toffoli_is_a_ccnot),
    "family-drops-a-charged-instruction": Mutant(
        circuits, "cnot_circuit",
        '*memory_read("m", "tp", "cm", "a"),\n            _ins("cz", bit="a", target="c"),',
        '*memory_read("m", "tp", "cm", "a"),', _yield_exponents_are_the_written_ones),
    # q and r trade places in the product: every yield's value is the same
    # but for rounding, so only an exact check sees it
    "yield-factors-reordered": Mutant(
        analysis, "census_yield", '"qicz", "cc"', '"cc", "qicz"',
        _yields_multiply_in_the_written_order),
    "emitter-brackets-the-outer-axis": Mutant(
        cli, "_float_array", "for size in reversed(value.shape):",
        "for size in value.shape:", _arrays_print_like_their_lists),
    # two keys of the branch template trade places, each naming the other's value
    "branch-template-swaps-two-keys": Mutant(
        cli, "_simulate_json", '"dims":[%s],"subsystems":[%s]',
        '"subsystems":[%s],"dims":[%s]', _simulate_matches_reference_rendering),
    # the pooled photon failure zeroes |0> and keeps |1H>, one of the two
    # levels it drops
    "oracle-failure-zeroes-one-level": Mutant(
        oracle, "brute_force_run", "post[:, :2, :] = 0.0", "post[:, :1, :] = 0.0",
        _oracle_pairs_failure_leaves),
    "oracle-cphase-without-its-recorded-value": Mutant(
        oracle, "brute_force_run", 'np.exp(1j * a["coeff"] * assignments[a["key"]])',
        'np.exp(1j * a["coeff"])', _oracle_agrees_on_the_w_states),
    # the photon and pm outcomes are built at import, so the mutant reaches
    # the position bases, whose outcomes each walk builds: the W state's
    # first position ends its branch as a failure
    "oracle-wrong-failure-flag": Mutant(
        oracle, "_outcomes", "outcome == len(rows) - 1", "outcome == 0",
        _oracle_pairs_failure_leaves),
    "oracle-correction-ungated": Mutant(
        oracle, "brute_force_run", 'assignments[a["bit"]] & 1', "True",
        _oracle_agrees_on_the_cnot_families),
    "map-read-without-transpose": Mutant(
        interrogation, "_effective_map_cached", "res.amps.reshape(total, total).T",
        "res.amps.reshape(total, total)", _map_is_its_column_runs),
    # the memo keyed by the object: the helper gets the bytes first seen for
    # the operator's id (kept on the mutant function itself)
    "contraction-memo-by-id": Mutant(
        state, "apply_local", "_sigma_max_of(op.shape, op.tobytes())",
        "_sigma_max_of(op.shape, apply_local.__dict__.setdefault(id(op), op.tobytes()))",
        test_state.assert_operator_scaled_in_place_is_refused),
    # the memo keyed by the bytes alone: the helper gets the shape first seen
    # with them
    "contraction-memo-without-shape": Mutant(
        state, "apply_local", "_sigma_max_of(op.shape, op.tobytes())",
        "_sigma_max_of(apply_local.__dict__.setdefault(op.tobytes(), op.shape), op.tobytes())",
        test_state.assert_memo_tells_shapes_apart),
    "subsystem-name-unchecked": Mutant(
        state, "SubsystemSpec.__post_init__",
        'raise ValueError(f"name must be a non-empty string, got {self.name!r}")', "pass",
        _subsystem_and_bit_files_are_one_error_line),
    "subsystem-kind-unchecked": Mutant(
        state, "SubsystemSpec.__post_init__",
        'raise ValueError(f"unknown kind {self.kind!r}")', "pass",
        _subsystem_and_bit_files_are_one_error_line),
    "subsystem-level-count-unchecked": Mutant(
        state, "SubsystemSpec.__post_init__",
        'raise ValueError(f"{self.kind} {self.name!r} {need}")', "pass",
        _subsystem_and_bit_files_are_one_error_line),
    "particle-guard-dropped": Mutant(
        state, "SubsystemSpec.positions",
        'expect(self, "a particle", "a position count")', "pass",
        _particle_guard_holds),
    "kind-guard-dropped": Mutant(
        state, "expect",
        'raise ValueError(f"{who} needs {needs}, but {spec.name!r} is {what}")', "pass",
        _gate_misfits_are_rejected),
    "probability-open-bound-closed": Mutant(
        state, "_check_probability", "closed or value < 1.0", "closed or value <= 1.0",
        _library_numbers_are_checked),
    "real-number-not-finite": Mutant(
        state, "_is_real", " and math.isfinite(v)", "", _library_numbers_are_checked),
    "probability-kept-at-its-width": Mutant(
        state, "_check_probability", "return float(value)", "return value",
        _library_numbers_are_checked),
    "cycles-kept-at-their-width": Mutant(
        interrogation, "QiParams.__post_init__",
        'object.__setattr__(self, "cycles", int(self.cycles))', "pass",
        _library_numbers_are_checked),
    "trials-kept-at-their-width": Mutant(
        analysis, "monte_carlo_yield", "trials, master_seed = int(trials), int(master_seed)",
        "master_seed = int(master_seed)", _library_numbers_are_checked),
    "bit-name-type-unchecked": Mutant(
        circuits, "validate_program",
        'raise ValueError(f"bits[{i}]: a bit name must be a string, got {bit!r}")', "pass",
        _subsystem_and_bit_files_are_one_error_line),
    "validator-error-unlocated": Mutant(
        circuits, "validate_program",
        'raise ValueError(f"instructions[{pos}]: {exc}") from None', "raise",
        _instruction_files_are_one_error_line),
    "oracle-error-unlocated": Mutant(
        oracle, "brute_force_run", 'raise ValueError(f"instructions[{i}]: {exc}") from None',
        "raise", _oracle_cap_names_its_instruction),
    "other-fields-accepted": Mutant(
        cli, "_no_other_fields", 'raise ValueError(f"{what} takes no field {key!r}")', "pass",
        _misspelt_field_files_are_one_error_line),
    "flag-word-tail-unmasked": Mutant(
        analysis, "monte_carlo_yield", "words[-1][:m], tail,", "words[-1][:m], 0,",
        _yields_match_the_literal_reference),
    "flag-words-read-at-offset-zero": Mutant(
        analysis, "monte_carlo_yield", "ok, 8 * j, (k,)", "ok, 0, (k,)",
        _yields_match_the_literal_reference),
    "draw-limit-one-word-high": Mutant(
        analysis, "_draw_limits", "<< np.uint64(11)) - np.uint64(1)", "<< np.uint64(11))",
        _draw_limits_split_the_words),
    "draw-limit-rounded-down": Mutant(
        analysis, "_draw_limits", "np.ceil(", "np.floor(", _draw_limits_split_the_words),
    "no-draw-program-yields-zero": Mutant(
        analysis, "monte_carlo_yield", "return YieldEstimate(1.0, 0.0, trials, master_seed)",
        "return YieldEstimate(0.0, 0.0, trials, master_seed)",
        test_analysis.test_monte_carlo_on_a_program_with_no_charged_instruction),
    "float-printed-as-repr": Mutant(
        cli, "_float", "_CELL % (float(x) + 0.0)", "repr(float(x) + 0.0)",
        _finite_stdout_is_pinned),
    "verdict-always-pass": Mutant(
        cli, "_verdict", "if worst <= ORACLE_TOLERANCE:", "if True:",
        _broken_engine_fails_verification),
    "parsed-values-written-back-as-defaults": Mutant(
        cli, "main", "args = parser.parse_args(argv)",
        "args = parser.parse_args(argv)\n"
        "        parser._subparsers._group_actions[0].choices[args.command].set_defaults(\n"
        "            **vars(args))",
        test_cli.assert_flags_do_not_outlive_their_call),
    "nested-file-uncaught": Mutant(
        cli, "load_program", "except RecursionError:", "except MemoryError:",
        _deeply_nested_file_is_one_error_line),
}


def _mutated(row: Mutant):
    """The function `row` names, and its mutant compiled in a copy of the
    module's globals."""
    owner, _, name = row.function.rpartition(".")
    original = getattr(getattr(row.module, owner) if owner else row.module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(row.snippet) == 1, f"{row.snippet!r} not once in {row.function}"
    code = compile(source.replace(row.snippet, row.replacement),
                   inspect.getsourcefile(inspect.unwrap(original)), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = dict(vars(row.module))
    exec(code, namespace)
    return original, namespace[name]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(monkeypatch, name):
    row = MUTANTS[name]
    original, mutant = _mutated(row)
    owner, _, method = row.function.rpartition(".")
    if owner:  # a method is read from its class
        monkeypatch.setattr(getattr(row.module, owner), method, mutant)
    else:
        bound = 0
        for module_name, module in list(sys.modules.items()):
            # a test module holds what it imported by name, as a killer calls it
            path = getattr(module, "__file__", None)
            if (module_name == "zenosim" or module_name.startswith("zenosim.")
                    or (path and Path(path).parent == _TESTS)):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, mutant)
                        bound += 1
        assert bound
    with pytest.raises(AssertionError):
        row.killer()


@pytest.mark.parametrize("killer", sorted({row.killer for row in MUTANTS.values()},
                                          key=lambda k: k.__name__),
                         ids=lambda k: k.__name__.strip("_"))
def test_killers_pass_on_the_code_as_it_is(killer):
    killer()
