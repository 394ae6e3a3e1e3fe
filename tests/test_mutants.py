"""A fixed catalogue of mutants, each killed by a named check.

Each row names a function, an exact snippet of its source, the snippet's
replacement and a killer: a plain check that the other test files also
run.  The test finds the snippet in the function's source (exactly once,
so a refactor that moves the code fails here instead of skipping the
mutant), compiles the mutated function in the module's globals, binds it
in every zenosim module that holds the original, and asserts that the
killer fails.  A mutant that no check catches is a blind spot of the
suite, so a row is never entered as an expected survivor."""

import __future__
import inspect
import sys
from typing import Callable, NamedTuple

import pytest

from zenosim import circuits, state
from zenosim.circuits import DEMOS
from zenosim.interrogation import KEEP, QiParams

from test_sampling import assert_sampled_leaves_follow_branch_weights
from test_walk import _assert_same_walk

# the memory CNOT at N = 333 with absorb 0.9 under the keep policy: its
# photons still hold |1V> when measured, so the walk ends in failure leaves
# as well as kept leaves whose weights are below 1
FAILURE_LEAVES = QiParams(cycles=333, absorb_prob=0.9, residual_v_policy=KEEP)


def _born_frequencies() -> None:
    assert_sampled_leaves_follow_branch_weights("uneven-cascade")


def _walk_with_failure_leaves() -> None:
    _assert_same_walk(DEMOS["cnot-memory"](), FAILURE_LEAVES)


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
}


def _mutated(row: Mutant):
    """The function `row` names, and its mutant compiled in a copy of the
    module's globals."""
    original = getattr(row.module, row.function)
    source = inspect.getsource(original)
    assert source.count(row.snippet) == 1, f"{row.snippet!r} not once in {row.function}"
    code = compile(source.replace(row.snippet, row.replacement),
                   inspect.getsourcefile(original), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = dict(vars(row.module))
    exec(code, namespace)
    return original, namespace[row.function]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(monkeypatch, name):
    original, mutant = _mutated(MUTANTS[name])
    bound = 0
    for module_name, module in list(sys.modules.items()):
        if module_name == "zenosim" or module_name.startswith("zenosim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, mutant)
                    bound += 1
    assert bound
    with pytest.raises(AssertionError):
        MUTANTS[name].killer()


@pytest.mark.parametrize("killer", sorted({row.killer for row in MUTANTS.values()},
                                          key=lambda k: k.__name__),
                         ids=lambda k: k.__name__.strip("_"))
def test_killers_pass_on_the_code_as_it_is(killer):
    killer()
