"""A fixed catalogue of mutants, each killed by a named check.

Each row names a function (or a class's method, as `Class.method`), an
exact snippet of its source, the snippet's replacement and a killer: a
plain check that the other test files also run, or one written here.  The
test finds the snippet in the function's source (exactly once, so a
refactor that moves the code fails here instead of skipping the mutant),
compiles the mutated function in the module's globals, binds it in every
zenosim module that holds the original (a method: on its class), and
asserts that the killer fails.  A mutant that no check catches is a blind spot of the
suite, so a row is never entered as an expected survivor."""

import __future__
import contextlib
import inspect
import io
import os
import sys
import tempfile
import textwrap
from typing import Callable, NamedTuple

import pytest

from zenosim import circuits, cli, interrogation, oracle, state
from zenosim.circuits import DEMOS
from zenosim.interrogation import KEEP, QiParams, effective_map

from test_interrogation import _MAP_LAYOUTS, _map_by_columns, _map_grid
from test_reference_powers import assert_power_stacks_match_the_50_digit_reference
from test_sampling import assert_sampled_leaves_follow_branch_weights
from test_walk import _assert_same_walk

# the memory CNOT at N = 333 with absorb 0.9 under the keep policy: its
# photons still hold |1V> when measured, so the walk ends in failure leaves
# as well as kept leaves whose weights are below 1
FAILURE_LEAVES = QiParams(cycles=333, absorb_prob=0.9, residual_v_policy=KEEP)


def _born_frequencies() -> None:
    assert_sampled_leaves_follow_branch_weights("uneven-cascade")


def _stacks_match_the_50_digit_reference() -> None:
    # the oracle reads the engine's own map at finite depth, so cycle
    # mutants are checked against the 50-digit reference instead
    assert_power_stacks_match_the_50_digit_reference(10**4)


def _map_is_its_column_runs() -> None:
    positions, blocking = _MAP_LAYOUTS[3]
    for params in _map_grid():
        got = effective_map(params, len(positions), positions, blocking)
        assert got.tobytes() == _map_by_columns(params, positions, blocking).tobytes()


def _walk_with_failure_leaves() -> None:
    _assert_same_walk(DEMOS["cnot-memory"](), FAILURE_LEAVES)


def _oracle_pairs_failure_leaves() -> None:
    try:
        deviation = oracle.compare(DEMOS["cnot-memory"](), FAILURE_LEAVES)
    except ValueError as exc:  # branches that do not pair fail the check
        raise AssertionError(str(exc)) from exc
    assert deviation <= 1e-10


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
    "blocked-count-exponent-dropped": Mutant(
        interrogation, "_cycle_powers", "** np.arange(kmax + 1)",
        "** np.minimum(np.arange(kmax + 1), 1)", _stacks_match_the_50_digit_reference),
    "map-read-without-transpose": Mutant(
        interrogation, "_effective_map_cached", "res.amps.reshape(total, total).T",
        "res.amps.reshape(total, total)", _map_is_its_column_runs),
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
            if module_name == "zenosim" or module_name.startswith("zenosim."):
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
