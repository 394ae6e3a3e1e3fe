"""Sweeps, discrimination, yield formulas, and the Monte Carlo estimator."""

import tracemalloc

import numpy as np
import pytest

from zenosim import analysis
from zenosim.analysis import (
    SweepRow,
    _draw_limits,
    _draw_probabilities,
    discrimination_success,
    fidelity_sweep,
    monte_carlo_yield,
    yield_formula,
    zeno_sweep,
)
from zenosim.circuits import (
    CNOT_FAMILIES,
    CircuitProgram,
    Instruction,
    cnot_circuit,
    gate_census,
)
from zenosim.gates import CHARGED, ImperfectionProfile
from zenosim.interrogation import PI_OVER_2N, PI_OVER_N
from zenosim.state import particle, photon

from helpers import direct_beats_half


def test_zeno_sweep_matches_closed_form():
    for rule, factor in ((PI_OVER_N, 1.0), (PI_OVER_2N, 0.5)):
        rows = zeno_sweep([1, 2, 5, 20], theta_rule=rule)
        for row in rows:
            theta = factor * np.pi / row.n_cycles
            assert row.survival == pytest.approx(
                np.cos(theta) ** (2 * row.n_cycles), abs=1e-12)


def test_zeno_sweep_survival_rises_with_n():
    rows = zeno_sweep([2, 4, 8, 16, 32, 64])
    values = [row.survival for row in rows]
    assert values == sorted(values)
    assert values[-1] > 0.85


def test_zeno_sweep_records_settings():
    row = zeno_sweep([7], absorb=0.5, loss=0.01)[0]
    assert isinstance(row, SweepRow)
    assert (row.n_cycles, row.absorb, row.loss) == (7, 0.5, 0.01)
    assert row.fidelity is None


@pytest.mark.parametrize("sweep", [zeno_sweep, fidelity_sweep])
@pytest.mark.parametrize("n", [2.5, True, "5", np.float64(3.0)], ids=repr)
def test_sweeps_refuse_a_count_that_is_not_an_integer(sweep, n):
    # each count reaches QiParams as given, so none is truncated or parsed
    with pytest.raises(ValueError, match=r"^cycles must be an integer or None, got "):
        sweep([n])


@pytest.mark.parametrize("sweep", [zeno_sweep, fidelity_sweep])
def test_sweeps_refuse_the_exact_limit(sweep):
    # QiParams takes None as the exact limit, but a row's n_cycles is a count
    with pytest.raises(ValueError, match=r"^a sweep takes cycle counts, not None \(the exact limit\)$"):
        sweep([5, None])


@pytest.mark.parametrize("n", [3.5, True, "3"], ids=repr)
def test_discrimination_refuses_a_count_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match=r"^cycles must be an integer or None, got "):
        discrimination_success(n, 1.0)


def test_sweeps_take_numpy_integer_counts():
    for sweep in (zeno_sweep, fidelity_sweep):
        got, want = sweep([np.int64(7)])[0], sweep([7])[0]
        assert type(got.n_cycles) is int and got == want
    assert discrimination_success(np.int64(10), 1.0) == discrimination_success(10, 1.0)


def test_fidelity_sweep_approaches_one():
    rows = fidelity_sweep([10, 100, 1000])
    values = [row.fidelity for row in rows]
    assert values == sorted(values)
    assert values[-1] > 0.999_99
    assert all(v <= 1.0 + 1e-12 for v in values)


def test_discrimination_reference_point():
    assert discrimination_success(10, 1.0) == pytest.approx(
        0.8902730348905701, abs=1e-12)


def test_discrimination_perfect_absorber_formula():
    # blocked arm: survival cos(pi/2n)^2n toward 1; open arm: photon ends V
    for n in (5, 20, 80):
        expected = 0.5 * (np.cos(np.pi / (2 * n)) ** (2 * n) + 1.0)
        assert discrimination_success(n, 1.0) == pytest.approx(expected, abs=1e-12)


def test_discrimination_monotone_in_n():
    values = [discrimination_success(n, 0.5) for n in (10, 40, 160, 640)]
    assert values == sorted(values)


def test_discrimination_weak_absorber_crossing():
    # an eps=0.25 absorber needs more cycles to reach the eps=1, n=10 score
    ref = discrimination_success(10, 1.0)
    assert discrimination_success(132, 0.25) < ref
    assert discrimination_success(133, 0.25) >= ref


def test_yield_formula_values():
    prof = ImperfectionProfile(p=0.9, q=0.8, r=0.7, s=0.6, eta=0.5)
    assert yield_formula("memory", prof) == pytest.approx(
        0.5 ** 2 * 0.9 ** 4 * 0.8 ** 5 * 0.7 ** 4)
    assert yield_formula("half-memory-keep-control", prof) == pytest.approx(
        0.5 * 0.9 ** 2 * 0.8 ** 3 * 0.7 ** 3)
    assert yield_formula("half-memory-keep-target", prof) == pytest.approx(
        0.5 * 0.9 ** 4 * 0.8 ** 3 * 0.7 ** 2 * 0.6 ** 2)
    assert yield_formula("direct-cx", prof) == pytest.approx(
        0.9 ** 2 * 0.8 ** 2 * 0.7 * 0.6)
    assert yield_formula("direct-cz", prof) == yield_formula("direct-cx", prof)
    with pytest.raises(ValueError):
        yield_formula("nonsense", prof)


# each family's yield exponents, written out: photon detectors (eta), optical
# H (p), interrogation CZs (q), classically controlled corrections (r) and
# particle H (s); keep-target's are those of the shipped (4,3,2,2,1) circuit
_EXPONENTS = {
    "memory": {"eta": 2, "p": 4, "q": 5, "r": 4},
    "half-memory-keep-control": {"eta": 1, "p": 2, "q": 3, "r": 3},
    "half-memory-keep-target": {"eta": 1, "p": 4, "q": 3, "r": 2, "s": 2},
    "direct-cx": {"p": 2, "q": 2, "r": 1, "s": 1},
    "direct-cz": {"p": 2, "q": 2, "r": 1, "s": 1},
}


@pytest.mark.parametrize("family", ["direct-cx", "half-memory-keep-control"])
def test_yield_formula_of_a_narrow_float_is_that_of_the_value_it_holds(family):
    # a float16 chance is worked at double width, not rounded to three
    # digits nor let underflow to 0 (compared as Python floats, since a
    # float16 compared with a float is compared at float16 width)
    narrow = ImperfectionProfile(p=np.float16(0.9), q=np.float16(1e-4))
    wide = ImperfectionProfile(p=float(np.float16(0.9)), q=float(np.float16(1e-4)))
    got = yield_formula(family, narrow)
    assert type(got) is float
    assert float(got) == yield_formula(family, wide) > 0.0


@pytest.mark.parametrize("family", CNOT_FAMILIES)
def test_yield_formula_matches_circuit_census(family):
    # the shipped circuit charges its fields the written-out exponents, and
    # the formula is their product
    prof = ImperfectionProfile(p=0.93, q=0.87, r=0.81, s=0.75, eta=0.69)
    census = gate_census(cnot_circuit(family))
    charged = {field: census[c] for c, field in CHARGED.items() if census[c]}
    assert charged == _EXPONENTS[family]
    product = 1.0
    for field, n in _EXPONENTS[family].items():
        product *= getattr(prof, field) ** n
    assert yield_formula(family, prof) == pytest.approx(product, rel=1e-12)


# a profile at which the memory family's product moves in its last bit
# when two later factors trade places (q and r, or p and r), which `%.12g`
# would hide; about a third of random profiles do
_ORDER_PROFILE = ImperfectionProfile(p=0.9, q=0.8, r=0.7, s=0.6, eta=0.5)


def _product_in_order(fields, profile, exponents) -> float:
    product = 1.0
    for field in fields:
        product *= getattr(profile, field) ** exponents.get(field, 0)
    return product


def test_the_order_profile_tells_the_orders_apart():
    written = _product_in_order("eta p q r s".split(), _ORDER_PROFILE, _EXPONENTS["memory"])
    for swapped in ("eta p r q s", "eta r q p s"):
        assert _product_in_order(swapped.split(), _ORDER_PROFILE,
                                 _EXPONENTS["memory"]) != written, swapped


@pytest.mark.parametrize("family", CNOT_FAMILIES)
def test_yield_formula_is_the_written_product_to_the_bit(family):
    # exact equality: the yields multiply eta, p, q, r, s in that order
    assert yield_formula(family, _ORDER_PROFILE) == _product_in_order(
        "eta p q r s".split(), _ORDER_PROFILE, _EXPONENTS[family])


def test_direct_beats_half_strict_and_tie():
    # direct wins iff s > eta * q * r**2
    assert direct_beats_half(ImperfectionProfile(q=0.9, r=0.9, s=0.99, eta=0.9))
    assert not direct_beats_half(ImperfectionProfile(q=0.9, r=0.9, s=0.1, eta=0.9))
    # exact boundary: s == eta * q * r**2 is a tie, reported False
    q, r, eta = 0.9, 0.8, 0.7
    assert not direct_beats_half(ImperfectionProfile(q=q, r=r, s=eta * q * r ** 2, eta=eta))


def test_draw_probabilities_order():
    prof = ImperfectionProfile(p=0.9, q=0.8, r=0.7, s=0.6, eta=0.5)
    probs = _draw_probabilities(cnot_circuit("direct-cx"), prof)
    # direct-cx order: h t, qicz, h t, particle h, qicz, cx
    assert probs.tolist() == [0.9, 0.8, 0.9, 0.6, 0.8, 0.7]


def _uniform(word):
    """The uniform numpy's `Generator.random` makes of a raw 64-bit word
    (an int, or a uint64 array word by word)."""
    return (word >> 11) * 2.0 ** -53


# p * 2**53 is an integer at 0.5 and not at 0.97; the limit wraps at 1
_LIMIT_CHANCES = [5e-324, 0.5, 0.97, float(np.nextafter(1.0, 0.0)), 1.0]


@pytest.mark.parametrize("p", _LIMIT_CHANCES)
def test_draw_limit_is_the_last_word_that_passes(p):
    (limit,) = _draw_limits(np.array([p])).tolist()
    assert _uniform(limit) < p
    if limit < 2 ** 64 - 1:
        assert not _uniform(limit + 1) < p
    else:
        assert p == 1.0


def test_raw_philox_words_are_the_generator_uniforms():
    # monte_carlo_yield compares raw words in blocks of any length against
    # limits set by this rule, so pin it across a split that leaves part of
    # Philox's four-word output buffered
    bitgen = np.random.Philox(key=2024)
    raw = np.concatenate([bitgen.random_raw(7), bitgen.random_raw(10_000)])
    uniforms = np.random.Generator(np.random.Philox(key=2024)).random(10_007)
    assert _uniform(raw).tobytes() == uniforms.tobytes()


def test_monte_carlo_is_deterministic():
    prof = ImperfectionProfile(p=0.95, q=0.9, r=0.85, s=0.8, eta=0.75)
    program = cnot_circuit("memory")
    a = monte_carlo_yield(program, prof, trials=20_000, master_seed=42)
    b = monte_carlo_yield(program, prof, trials=20_000, master_seed=42)
    assert a.estimate == b.estimate
    assert a.stderr == b.stderr


def test_monte_carlo_chunk_invariant(monkeypatch):
    prof = ImperfectionProfile(p=0.95, q=0.9, r=0.85, s=0.8, eta=0.75)
    for family in ("direct-cx", "memory"):  # 6 and 15 draws a trial
        program = cnot_circuit(family)
        estimates = set()
        for chunk in (1, 7, 128, 10_000):
            monkeypatch.setattr(analysis, "MC_CHUNK", chunk)
            estimates.add(monte_carlo_yield(program, prof, trials=10_000,
                                            master_seed=9).estimate)
        assert len(estimates) == 1, family


def _charged_chain(k):
    """k charged ops cycling through three profile fields."""
    ops = [Instruction("photon_h", {"target": "t"}),
           Instruction("qicz", {"photon": "t", "particle": "b"}),
           Instruction("particle_h", {"target": "b"})]
    return CircuitProgram(
        subsystems=(photon("t"), particle("b")),
        bits=(),
        instructions=(Instruction("prepare", {"target": "t", "level": 0}),
                      Instruction("prepare", {"target": "b", "level": 0}),
                      *(ops[i % 3] for i in range(k))))


# draws per trial at each side of the 8-byte words a trial's flags are read
# in, and trial counts at each side of a block
_CHAIN_LENGTHS = [1, 7, 8, 9, 15, 16, 17, 24, 25]
_TRIAL_COUNTS = [1, analysis.MC_CHUNK - 1, analysis.MC_CHUNK, analysis.MC_CHUNK + 1,
                 3 * analysis.MC_CHUNK + 7]
# at even chances failing trials sit next to each trial in the flags, so a
# word read past a trial's own flags sees them; the last three profiles put
# chances at the ends of the limits' range (0 on the second charged op
# only, so a single-op chain still draws)
_LITERAL_PROFILES = {"likely": ImperfectionProfile(p=0.97, q=0.9, s=0.95),
                     "even": ImperfectionProfile(p=0.5, q=0.5, s=0.5),
                     "impossible": ImperfectionProfile(p=0.97, q=0.0, s=0.95),
                     "certain": ImperfectionProfile(),
                     "edge": ImperfectionProfile(p=float(np.nextafter(1.0, 0.0)),
                                                 q=float(np.nextafter(1.0, 0.0)),
                                                 s=5e-324)}


@pytest.mark.parametrize("k", _CHAIN_LENGTHS)
@pytest.mark.parametrize("trials", _TRIAL_COUNTS)
@pytest.mark.parametrize("chances", sorted(_LITERAL_PROFILES))
def test_monte_carlo_matches_literal_reference(k, trials, chances):
    prof = _LITERAL_PROFILES[chances]
    program = _charged_chain(k)
    probs = _draw_probabilities(program, prof)
    assert probs.size == k
    seed = 1000 * k + trials
    rng = np.random.Generator(np.random.Philox(key=seed))
    want = (rng.random((trials, k)) < probs).all(axis=1).sum()
    got = monte_carlo_yield(program, prof, trials=trials, master_seed=seed)
    assert got.estimate == want / trials


def test_monte_carlo_memory_does_not_grow_with_trials():
    prof = ImperfectionProfile(p=0.95, q=0.9, r=0.85, s=0.8, eta=0.75)
    program = cnot_circuit("memory")
    # the first Philox of a process keeps about 0.77 MB, so one is built
    # before tracing and the peak is the call's own arrays: about 0.62 MB at
    # 15 draws a trial, of which one block of raw words is 0.49 MB, so the
    # bound fails if two blocks are alive at once
    np.random.Philox(key=5)
    tracemalloc.start()
    try:
        monte_carlo_yield(program, prof, trials=10 ** 6, master_seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 768 * 1024


def test_monte_carlo_agrees_with_formula():
    prof = ImperfectionProfile(p=0.97, q=0.93, r=0.9, s=0.88, eta=0.92)
    for family in ("memory", "direct-cx"):
        program = cnot_circuit(family)
        result = monte_carlo_yield(program, prof, trials=200_000, master_seed=3)
        truth = yield_formula(family, prof)
        sigma = np.sqrt(truth * (1 - truth) / result.trials)
        assert abs(result.estimate - truth) < 4 * sigma


def test_monte_carlo_perfect_profile_is_exact():
    result = monte_carlo_yield(cnot_circuit("memory"), ImperfectionProfile(),
                               trials=100, master_seed=1)
    assert result.estimate == 1.0
    assert result.stderr == 0.0


def test_monte_carlo_on_a_program_with_no_charged_instruction():
    # a particle prepared and measured in particle_computational draws
    # nothing, so every trial succeeds, whatever the profile
    program = CircuitProgram(
        subsystems=(particle("b"),), bits=("m",),
        instructions=(Instruction("prepare", {"target": "b"}),
                      Instruction("measure", {"target": "b", "bit": "m",
                                              "basis": "particle_computational"})))
    assert not any(instr.charge for instr in program.instructions)
    result = monte_carlo_yield(program, ImperfectionProfile(0.5, 0.5, 0.5, 0.5, 0.5),
                               trials=1000, master_seed=3)
    assert (result.estimate, result.stderr, result.trials) == (1.0, 0.0, 1000)


def test_monte_carlo_rejects_bad_trials():
    program = cnot_circuit("memory")
    with pytest.raises(ValueError, match="^need a positive trial count$"):
        monte_carlo_yield(program, ImperfectionProfile(), trials=0, master_seed=1)
    # a trial count is an integer, and a bool is not one
    for trials, shown in ((1000.0, "1000.0"), (True, "True")):
        with pytest.raises(ValueError, match=rf"^trials must be an integer, got {shown}$"):
            monte_carlo_yield(program, ImperfectionProfile(), trials, 1)


def test_monte_carlo_seed_range():
    program, prof = cnot_circuit("memory"), ImperfectionProfile(p=0.9)
    for seed in (0, 2 ** 128 - 1):
        assert monte_carlo_yield(program, prof, trials=10,
                                 master_seed=seed).master_seed == seed
    for seed in (-1, 2 ** 128):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128\)"):
            monte_carlo_yield(program, prof, trials=1, master_seed=seed)


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", None])
def test_monte_carlo_rejects_a_seed_that_is_not_an_integer(seed):
    program, prof = cnot_circuit("memory"), ImperfectionProfile(p=0.9)
    with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
        monte_carlo_yield(program, prof, trials=10, master_seed=seed)


@pytest.mark.parametrize("width", [np.int16, np.int32])
def test_monte_carlo_numpy_integer_trials_match_int(width):
    # a narrow trial count reads as the int it holds: 3,000 trials of 15
    # draws each take more words than an int16 can count
    program, prof = cnot_circuit("memory"), ImperfectionProfile(p=0.9, q=0.8)
    got = monte_carlo_yield(program, prof, trials=width(3000), master_seed=width(7))
    assert got == monte_carlo_yield(program, prof, trials=3000, master_seed=7)
    assert (type(got.estimate), type(got.trials), type(got.master_seed)) == (float, int, int)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(2 ** 64 - 1), np.int8(0)])
def test_monte_carlo_numpy_integer_seed_matches_int(seed):
    program, prof = cnot_circuit("memory"), ImperfectionProfile(p=0.9, q=0.8)
    got = monte_carlo_yield(program, prof, trials=5000, master_seed=seed)
    want = monte_carlo_yield(program, prof, trials=5000, master_seed=int(seed))
    assert got == want
    assert type(got.master_seed) is int
