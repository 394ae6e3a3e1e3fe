"""A ledger of every `raise` in `src/zenosim`, each tied to a case that
reaches it.

A raise site is named by its module, its function (`Class.method` for a
method) and its message template: the message's literal text, with `{}`
for each value formatted into it.  No line numbers: sites that share a
name are told apart by their order in the source.  `LEDGER` has one row
per site, in that order: the site, a case that runs it, and the message
the site raises there.  A case is a test of another module, called
through its module with its parameters (so that pytest does not collect
it here a second time), or a call written here.  Cases run in a fresh
working directory, so the file tests write their files there.

`test_every_raise_site_is_in_the_ledger` fails on a raise that has no row
and on a row whose site is gone.  `test_case_reaches_its_raise_site` runs
each case under a trace of the exceptions raised in `src/zenosim` and
fails unless the row's site raised the row's message while it ran."""

import ast
import importlib
import sys
from collections import Counter
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import zenosim
from zenosim import analysis, cli, interrogation
from zenosim.circuits import DEMOS
from zenosim.gates import ImperfectionProfile
from zenosim.state import particle

import test_analysis
import test_circuits
import test_cli
import test_gates
import test_interrogation
import test_oracle
import test_state

_SRC = Path(zenosim.__file__).parent
# each module's file as its code objects name it
_FILES = {path.stem: importlib.import_module(f"zenosim.{path.stem}").__file__
          for path in _SRC.glob("*.py")}


class Site(NamedTuple):
    module: str
    function: str
    message: str  # the template


def _template(node) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return "{}"


@cache
def raise_sites() -> dict[Site, list[tuple[str, int]]]:
    """Each site's (file, line) pairs, in source order."""
    sites: dict[Site, list[tuple[str, int]]] = {}
    for path in sorted(_SRC.glob("*.py")):
        filename = _FILES[path.stem]

        def visit(node, names):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, names + [child.name])
                    continue
                if isinstance(child, ast.Raise):
                    exc = child.exc
                    message = (_template(exc.args[0])
                               if isinstance(exc, ast.Call) and exc.args else "")
                    site = Site(path.stem, ".".join(names), message)
                    sites.setdefault(site, []).append((filename, child.lineno))
                visit(child, names)

        visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return sites


# where a case writes its files: the fresh working directory it runs in
_HERE = Path(".")


def _malformed(message: str) -> Callable[[], None]:
    # the circuit-file test of test_cli.MALFORMED whose error line is `message`
    (doc,) = [doc for doc, line in test_cli.MALFORMED if line == message]
    return lambda: test_cli.test_malformed_file_is_one_error_line(_HERE, doc, message)


def _cli_table(test, name: str) -> Callable[[], None]:
    # a test_cli table test, on one of its named documents, under `simulate`
    return lambda: test(_HERE, name, "simulate")


def _loads(doc) -> Callable[[], None]:
    return partial(cli.program_from_doc, doc)


def _unpaired(name: str) -> Callable[[], None]:
    # test_oracle's check of one unpaired branch list, `name` in its table
    def case():
        with pytest.MonkeyPatch.context() as patch:
            test_oracle.test_compare_names_the_branch_that_does_not_pair(patch, name)
    return case


class Row(NamedTuple):
    site: Site
    case: Callable[[], object]
    message: str


LEDGER = [
    # analysis (yield_formula's unknown family raises in cnot_circuit, below)
    Row(Site("analysis", "_sweep_params", "a sweep takes cycle counts, not None (the exact limit)"),
        partial(test_analysis.test_sweeps_refuse_the_exact_limit, analysis.fidelity_sweep),
        "a sweep takes cycle counts, not None (the exact limit)"),
    Row(Site("analysis", "monte_carlo_yield", "trials must be an integer, got {}"),
        test_analysis.test_monte_carlo_rejects_bad_trials,
        "trials must be an integer, got 1000.0"),
    Row(Site("analysis", "monte_carlo_yield", "need a positive trial count"),
        test_analysis.test_monte_carlo_rejects_bad_trials, "need a positive trial count"),
    Row(Site("analysis", "monte_carlo_yield", "seed must be an integer, got {}"),
        partial(test_analysis.test_monte_carlo_rejects_a_seed_that_is_not_an_integer, 1.5),
        "seed must be an integer, got 1.5"),
    Row(Site("analysis", "monte_carlo_yield", "seed must be in [0, 2**128), got {}"),
        test_analysis.test_monte_carlo_seed_range, "seed must be in [0, 2**128), got -1"),
    # circuits: prepared vectors and instruction arguments
    Row(Site("circuits", "_prepared",
             "prepare takes one of level, pm, state or a true uniform, got {}"),
        _cli_table(test_cli.test_arguments_the_engine_would_reject_are_one_error_line,
                   "pm-and-level"),
        "prepare takes one of level, pm, state or a true uniform, got level and pm"),
    Row(Site("circuits", "_prepared", "initial vector too long for {}"),
        _cli_table(test_cli.test_arguments_the_engine_would_reject_are_one_error_line,
                   "state-length"),
        "initial vector too long for 'p'"),
    Row(Site("circuits", "_prepared", "level {} out of range for {}"),
        _cli_table(test_cli.test_arguments_the_engine_would_reject_are_one_error_line,
                   "level"),
        "level 7 out of range for 'p'"),
    Row(Site("circuits", "_phase_fits",
             "cphase coeff {} times {}, the largest value of bit {}, is not finite"),
        _cli_table(test_cli.test_arguments_the_engine_would_reject_are_one_error_line,
                   "phase-reached"),
        test_cli._PHASE_MESSAGE),
    Row(Site("circuits", "Instruction.__post_init__", "unknown op {}"),
        test_circuits.test_unknown_op_rejected, "unknown op 'teleport'"),
    Row(Site("circuits", "Instruction.__post_init__", "{} takes no argument {}"),
        test_circuits.test_instruction_takes_only_the_names_its_row_lists,
        "prepare takes no argument 'levle'"),
    Row(Site("circuits", "Instruction.__post_init__", "{} needs argument {}"),
        test_circuits.test_instruction_needs_its_arguments, "photon_h needs argument 'target'"),
    Row(Site("circuits", "Instruction.__post_init__", "{} argument {} must be {}, got {}"),
        _malformed("instructions[0]: prepare argument 'level' must be an integer, got [1]"),
        "prepare argument 'level' must be an integer, got [1]"),
    Row(Site("circuits", "CircuitProgram.spec", "undeclared subsystem {}"),
        test_circuits.test_spec_of_an_undeclared_name_is_a_key_error,
        "undeclared subsystem 'x'"),
    # circuits: the validator, in source order
    Row(Site("circuits", "validate_program", "subsystems[{}]: duplicate subsystem name {}"),
        _malformed("subsystems[1]: duplicate subsystem name 'p'"),
        "subsystems[1]: duplicate subsystem name 'p'"),
    Row(Site("circuits", "validate_program",
             "subsystems[{}]: {} would have {} levels; the engine allows at most {}"),
        _malformed("subsystems[0]: 'b' would have 1000000001 levels; the engine allows "
                   "at most 1024"),
        "subsystems[0]: 'b' would have 1000000001 levels; the engine allows at most 1024"),
    Row(Site("circuits", "validate_program", "bits[{}]: a bit name must be a string, got {}"),
        _malformed("bits[1]: a bit name must be a string, got 3"),
        "bits[1]: a bit name must be a string, got 3"),
    Row(Site("circuits", "validate_program", "bits[{}]: duplicate bit name {}"),
        test_circuits.test_duplicate_bit_name, "bits[1]: duplicate bit name 'b'"),
    Row(Site("circuits", "validate_program",
             'bits[{}]: {} may not hold , ; = " or a line break'),
        partial(test_cli.test_bit_name_that_would_split_a_csv_row_is_one_error_line,
                _HERE, "a,b"),
        "bits[0]: 'a,b' may not hold , ; = \" or a line break"),
    Row(Site("circuits", "validate_program", "undeclared bit {}"),
        test_circuits.test_measure_into_undeclared_bit, "undeclared bit 'b'"),
    Row(Site("circuits", "validate_program", "bit {} read before write"),
        test_circuits.test_correction_bit_read_before_write, "bit 'b' read before write"),
    Row(Site("circuits", "validate_program",
             "{} needs a 0/1 control, but bit {} can hold 0..{}; use cphase for integer "
             "outcomes"),
        partial(test_circuits.test_binary_control_on_multi_valued_bit_rejected, "cx"),
        "cx needs a 0/1 control, but bit 'm' can hold 0..2; use cphase for integer outcomes"),
    Row(Site("circuits", "validate_program", "undeclared subsystem {}"),
        test_circuits.test_undeclared_subsystem, "undeclared subsystem 'q'"),
    Row(Site("circuits", "validate_program", "{} prepared twice"),
        test_circuits.test_prepare_twice, "'p' prepared twice"),
    Row(Site("circuits", "validate_program", "{} reused after measurement"),
        _malformed("instructions[2]: 'p' reused after measurement"),
        "'p' reused after measurement"),
    Row(Site("circuits", "validate_program",
             "preparing {} makes a state of {} amplitudes; the engine allows at most {}"),
        _malformed("instructions[2]: preparing 'b2' makes a state of 8120601 amplitudes; "
                   "the engine allows at most 1048576"),
        "preparing 'b2' makes a state of 8120601 amplitudes; the engine allows at most "
        "1048576"),
    Row(Site("circuits", "validate_program", "{} used after measurement"),
        test_circuits.test_use_after_measurement, "'p' used after measurement"),
    Row(Site("circuits", "validate_program", "{} used before prepare"),
        test_circuits.test_use_before_prepare, "'p' used before prepare"),
    Row(Site("circuits", "validate_program",
             "preparing {} makes a state of norm^2 {}, above 1 + {}"),
        lambda: test_cli.test_prepared_norms_past_the_state_tolerance_end_at_load(_HERE),
        "preparing 'q' makes a state of norm^2 1.0000000000017994, above 1 + 1e-12"),
    # the instruction loop's one handler, which prefixes every error above and
    # those of the rules it calls: a written bit's basis, what a step may act
    # on, an op's own argument check
    Row(Site("circuits", "validate_program", "instructions[{}]: {}"),
        test_circuits.test_unknown_basis, "instructions[1]: unknown basis 'diagonal'"),
    Row(Site("circuits", "w_state_generator", "the photon count must be an integer, got {}"),
        partial(test_circuits.test_w_generator_needs_an_integer_photon_count, 3.0),
        "the photon count must be an integer, got 3.0"),
    Row(Site("circuits", "w_state_generator", "need at least 2 photons"),
        test_circuits.test_w_generator_needs_two_photons, "need at least 2 photons"),
    Row(Site("circuits", "cnot_circuit", "unknown family {}"),
        lambda: analysis.yield_formula("nope", ImperfectionProfile()), "unknown family 'nope'"),
    # cli
    Row(Site("cli", "_doc_list", "{} must be a list"),
        _malformed("bits must be a list"), "bits must be a list"),
    Row(Site("cli", "_no_other_fields", "{} takes no field {}"),
        _cli_table(test_cli.test_unloadable_file_is_one_prefixed_error_line, "misspelt-list"),
        "top level takes no field 'instrucions'"),
    Row(Site("cli", "program_from_doc", "top level must be an object"),
        _loads([]), "top level must be an object"),
    Row(Site("cli", "program_from_doc", "unsupported version {}"),
        _loads({"version": 1}), "unsupported version 1"),
    Row(Site("cli", "program_from_doc", "subsystems[{}]: must be an object"),
        _loads({"version": "1", "subsystems": ["p"]}), "subsystems[0]: must be an object"),
    Row(Site("cli", "program_from_doc", "subsystems[{}]: {}"),
        _malformed("subsystems[0]: unknown kind 'widget'"),
        "subsystems[0]: unknown kind 'widget'"),
    Row(Site("cli", "program_from_doc", "instructions[{}]: missing op"),
        _loads({"version": "1", "instructions": [{"target": "p"}]}),
        "instructions[0]: missing op"),
    Row(Site("cli", "program_from_doc", "instructions[{}]: {}"),
        lambda: test_cli.test_unknown_op_reports_index(_HERE),
        "instructions[0]: unknown op 'warp'"),
    Row(Site("cli", "load_program", "cannot read {}: {}"),
        lambda: test_cli.test_missing_file_reported(_HERE),
        "cannot read no_such_file.json: No such file or directory"),
    Row(Site("cli", "load_program", "parse error at line {} column {}"),
        lambda: test_cli.test_parse_error_reports_position(_HERE),
        "parse error at line 2 column 18"),
    Row(Site("cli", "load_program", "parse error: arrays or objects nested too deeply"),
        _cli_table(test_cli.test_unloadable_file_is_one_prefixed_error_line, "nested"),
        "parse error: arrays or objects nested too deeply"),
    Row(Site("cli", "_parse_profile", "profile needs five comma-separated values: p,q,r,s,eta"),
        test_cli.test_unknown_family_and_bad_profile,
        "profile needs five comma-separated values: p,q,r,s,eta"),
    Row(Site("cli", "_parse_cycles_list", "cycle counts must be positive integers"),
        test_cli.test_sweep_rejects_a_cycle_count_below_one,
        "cycle counts must be positive integers"),
    Row(Site("cli", "_resolve_family", "unknown family {}"),
        test_cli.test_unknown_family_and_bad_profile, "unknown family 'quantum'"),
    Row(Site("cli", "_cmd_simulate", "pass exactly one of a circuit file or --demo"),
        lambda: test_cli.test_simulate_requires_one_source(_HERE),
        "pass exactly one of a circuit file or --demo"),
    Row(Site("cli", "_cmd_simulate", "unknown demo {}; available: {}"),
        test_cli.test_simulate_unknown_demo,
        f"unknown demo 'nope'; available: {', '.join(sorted(DEMOS))}"),
    # gates
    Row(Site("gates", "prepare_particle_pm", "sign must be '+' or '-'"),
        test_gates.test_prepare_pm_signs, "sign must be '+' or '-'"),
    Row(Site("gates", "classically_controlled", "unknown controlled gate {}"),
        test_gates.test_classically_controlled_unknown_gate, "unknown controlled gate 'ct'"),
    # interrogation
    Row(Site("interrogation", "QiParams.__post_init__",
             "cycles must be an integer or None, got {}"),
        test_interrogation.test_params_validation,
        "cycles must be an integer or None, got 10.0"),
    Row(Site("interrogation", "QiParams.__post_init__", "cycles must be >= 1"),
        test_interrogation.test_params_validation, "cycles must be >= 1"),
    Row(Site("interrogation", "QiParams.__post_init__", "unknown theta rule {}"),
        test_interrogation.test_theta_rules_and_explicit, "unknown theta rule 'explicit'"),
    Row(Site("interrogation", "QiParams.__post_init__",
             "the exact limit is defined for the pi/N rule only"),
        test_interrogation.test_params_validation,
        "the exact limit is defined for the pi/N rule only"),
    Row(Site("interrogation", "QiParams.__post_init__",
             "the exact limit is defined for absorb_prob > 0 and cycle_loss = 0 only"),
        test_interrogation.test_params_validation,
        "the exact limit is defined for absorb_prob > 0 and cycle_loss = 0 only"),
    Row(Site("interrogation", "QiParams.__post_init__", "unknown residual policy {}"),
        test_interrogation.test_params_validation, "unknown residual policy 'discard'"),
    Row(Site("interrogation", "wiring", "one blocking entry per particle required"),
        _cli_table(test_cli.test_qicz_multi_lists_that_do_not_fit_are_one_error_line,
                   "blocking-length"),
        "one blocking entry per particle required"),
    Row(Site("interrogation", "wiring", "particle {} listed twice"),
        test_circuits.test_configurable_gate_rejects_double_wiring, "particle 'b' listed twice"),
    Row(Site("interrogation", "wiring",
             "blocking entry for {} must be a position or a list of positions, got {}"),
        partial(test_interrogation.test_blocking_entries_are_integer_positions, "float-in-list"),
        "blocking entry for 'b' must be a position or a list of positions, got [0.7]"),
    Row(Site("interrogation", "wiring", "duplicate blocking position for {}"),
        lambda: interrogation.wiring([particle("b", 3)], [[1, 1]]),
        "duplicate blocking position for 'b'"),
    Row(Site("interrogation", "wiring",
             "blocking position {} invalid for {} (positions 0..{}; the exploded level "
             "cannot block)"),
        _cli_table(test_cli.test_qicz_multi_lists_that_do_not_fit_are_one_error_line,
                   "blocking-position"),
        "blocking position 5 invalid for 'b' (positions 0..1; the exploded level cannot "
        "block)"),
    Row(Site("interrogation", "effective_map",
             "need a nonnegative particle count and one position count per particle"),
        partial(test_interrogation.test_effective_map_rejects_position_count_mismatch,
                3, [2]),
        "need a nonnegative particle count and one position count per particle"),
    # oracle
    Row(Site("oracle", "_gate", "operator of shape {} does not act on {} ({} levels)"),
        test_oracle.test_apply_rejects_an_operator_of_the_wrong_size,
        "operator of shape (4, 4) does not act on ['a', 'b'] (12 levels)"),
    Row(Site("oracle", "_plan", "preparing {} would exceed the {}-dimensional cap"),
        lambda: test_cli.test_oracle_check_refuses_a_state_past_its_dimension_cap(_HERE),
        "preparing 'p4' would exceed the 1280-dimensional cap"),
    Row(Site("oracle", "brute_force_run", "instructions[{}]: {}"),
        lambda: test_cli.test_oracle_check_refuses_a_state_past_its_dimension_cap(_HERE),
        "instructions[5]: preparing 'p4' would exceed the 1280-dimensional cap"),
    Row(Site("oracle", "compare",
             "branch {}: engine (record, failed, layout) {} != brute force {}"),
        _unpaired("order"),
        "branch 0: engine (record, failed, layout) ({'a': 1, 'c': 1}, False, ('pout',)) "
        "!= brute force ({'a': 0, 'c': 0}, False, ('pout',))"),
    Row(Site("oracle", "compare",
             "branch {}: the engine has {} branches, the brute-force run {}"),
        _unpaired("fewer"),
        "branch 3: the engine has 3 branches, the brute-force run 4"),
    # state (first, the one probability rule of QiParams and ImperfectionProfile)
    Row(Site("state", "_check_probability", "{} must be a number, got {}"),
        test_gates.test_profile_validation, "p must be a number, got True"),
    Row(Site("state", "_check_probability", "{} must lie in [0, 1{}"),
        test_interrogation.test_params_validation, "cycle_loss must lie in [0, 1)"),
    Row(Site("state", "SubsystemSpec.__post_init__", "name must be a non-empty string, got {}"),
        _malformed("subsystems[0]: name must be a non-empty string, got ''"),
        "name must be a non-empty string, got ''"),
    Row(Site("state", "SubsystemSpec.__post_init__", "unknown kind {}"),
        _malformed("subsystems[0]: unknown kind 'widget'"), "unknown kind 'widget'"),
    Row(Site("state", "SubsystemSpec.__post_init__", "{} {} {}"),
        _cli_table(test_cli.test_unloadable_file_is_one_prefixed_error_line, "dim-1"),
        "particle 'b' needs an integer number of positions, at least 2, got 1"),
    Row(Site("state", "expect", "{} needs {}, but {} is {}"),
        test_gates.test_gate_kind_mismatch_rejected,
        "photon_h needs a photon, but 'a' is a 2-position particle"),
    Row(Site("state", "StateVector.__post_init__", "non-finite amplitude"),
        test_state.test_norm_overflow_rejected, "non-finite amplitude"),
    Row(Site("state", "StateVector.__post_init__", "norm^2 {} exceeds 1"),
        test_state.test_norm_overflow_rejected, "norm^2 2.0 exceeds 1"),
    Row(Site("state", "StateVector.axis", "unknown subsystem {}"),
        test_state.test_axis_of_an_unknown_name_is_a_key_error, "unknown subsystem 'q'"),
    Row(Site("state", "new_state", "layout/levels length mismatch"),
        test_state.test_new_state_checks_one_level_per_subsystem_in_range,
        "layout/levels length mismatch"),
    Row(Site("state", "new_state", "level {} out of range for subsystem {}"),
        test_state.test_new_state_checks_one_level_per_subsystem_in_range,
        "level 4 out of range for subsystem 'p'"),
    Row(Site("state", "apply_local", "operator shape {} does not match target dimension {}"),
        test_state.test_apply_local_errors_keep_their_messages,
        "operator shape (4, 4) does not match target dimension 3"),
    Row(Site("state", "apply_local", "operator is not a contraction (sigma_max = {})"),
        test_state.test_apply_local_errors_keep_their_messages,
        "operator is not a contraction (sigma_max = 1.5)"),
    Row(Site("state", "basis_outcomes", "unknown basis {}"),
        test_circuits.test_unknown_basis, "unknown basis 'diagonal'"),
    Row(Site("state", "fidelity", "layout mismatch"),
        test_state.test_fidelity_contract, "layout mismatch"),
    Row(Site("state", "fidelity", "{} state is not renormalized"),
        test_state.test_fidelity_contract, "second state is not renormalized"),
    Row(Site("state", "initial_vector", "initial vector must have length {}"),
        test_state.test_add_subsystem_and_level_weight, "initial vector must have length 3"),
    Row(Site("state", "initial_vector", "initial vector must be normalized"),
        test_state.test_add_subsystem_and_level_weight, "initial vector must be normalized"),
    Row(Site("state", "add_subsystem", "subsystem {} already present"),
        test_state.test_add_subsystem_and_level_weight, "subsystem 'q' already present"),
]


def test_every_raise_site_is_in_the_ledger():
    sites = Counter({site: len(lines) for site, lines in raise_sites().items()})
    rows = Counter(row.site for row in LEDGER)
    assert not sites - rows, f"raise sites without a row: {sorted(sites - rows)}"
    assert not rows - sites, f"rows whose raise site is gone: {sorted(rows - sites)}"


def _traced(case: Callable[[], object]) -> list[tuple[str, int, BaseException]]:
    """Run `case`, tracing only frames of `src/zenosim`: the (file, line,
    exception) of each exception raised there or passed through.  An
    exception that escapes `case` must be one of those."""
    files = set(_FILES.values())
    events: list[tuple[str, int, BaseException]] = []

    def local(frame, event, arg):
        if event == "exception":
            events.append((frame.f_code.co_filename, frame.f_lineno, arg[1]))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        frame.f_trace_lines = False
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        case()
    except Exception as exc:
        if not any(exc is raised for *_, raised in events):
            raise
    finally:
        sys.settrace(previous)
    return events


def _row_ids():
    seen = Counter()
    for row in LEDGER:
        seen[row.site] += 1
        nth = f" #{seen[row.site]}" if seen[row.site] > 1 else ""
        yield f"{row.site.module}.{row.site.function}: {row.site.message}{nth}"


@pytest.mark.parametrize("index", range(len(LEDGER)), ids=list(_row_ids()))
def test_case_reaches_its_raise_site(monkeypatch, tmp_path, index):
    row = LEDGER[index]
    nth = sum(other.site == row.site for other in LEDGER[:index])
    lines = raise_sites().get(row.site, [])
    assert nth < len(lines), f"{row.site} is gone"
    monkeypatch.chdir(tmp_path)
    events = _traced(row.case)
    raised = [exc.args[0] for file, line, exc in events if (file, line) == lines[nth]]
    assert raised, f"{row.site} was not reached"
    assert row.message in raised, raised
