"""The `simulate` JSON writer against the per-value emitter it replaced,
and pins of the stdout of `simulate`, `cnot` and `montecarlo`.

`reference_emit_json` is the generic emitter as it was before arrays were
filled through one `%` template per shape: a walk over dicts, lists and
scalars, every float formatted one at a time with `format(x, ".12g")` and
every string quoted by `json.dumps`.  The one change is the `np.bool_`
case, which crashed there.  `zenosim.cli`'s fixed-template writer, given
a `simulate` document's results, must stay byte-equal to it on
`reference_payload`, the payload dict the walk was given, and its array
formatter must stay byte-equal to it on any float array."""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from zenosim.circuits import CNOT_FAMILIES, DEMOS, RunResult, run_all_branches
from zenosim.cli import _float_array, _params_from, _simulate_json, build_parser, main
from zenosim.interrogation import PI_OVER_2N, PI_OVER_N, QiParams
from zenosim.state import PHOTON_DIM, StateVector, SubsystemSpec


def reference_emit_json(value) -> str:
    if isinstance(value, np.ndarray):
        parts = list(map(_reference_float, value.ravel().tolist()))
        for size in reversed(value.shape[1:]):
            parts = ["[" + ",".join(parts[i:i + size]) + "]"
                     for i in range(0, len(parts), size)]
        return "[" + ",".join(parts) + "]"
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{reference_emit_json(v)}"
                         for k, v in sorted(value.items()))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(reference_emit_json(v) for v in value) + "]"
    if isinstance(value, (bool, np.bool_)):  # np.bool_ raised TypeError before
        return "true" if value else "false"
    if isinstance(value, (np.floating, float)):
        return _reference_float(value)
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    if value is None:
        return "null"
    return json.dumps(value)


def _reference_float(x) -> str:
    return format(float(x) + 0.0, ".12g")


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                   3.5e17, -3.5e17, 1 / 3, -2 / 3, 0.1, 1e16, 123456789012.5]
_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_SPECIAL_FLOATS)
# bit, subsystem and source names, with characters JSON must escape
_names = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\n\té€\u2028\U0001f600'),
                 min_size=1, max_size=6)


@st.composite
def _float_arrays(draw):
    """float64 arrays of 1 to 3 axes; only the first axis may be empty, since
    the reference cannot bracket an empty inner axis."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(0 if axis == 0 else 1, 4)) for axis in range(ndim))
    return draw(arrays(np.float64, shape, elements=_floats))


# (n, 2) float64 views of complex amplitudes, as `simulate` prints them
_complex_views = arrays(
    np.complex128, st.integers(0, 6),
    elements=st.complex_numbers(allow_nan=False, allow_infinity=False)
    | st.sampled_from([complex(a, b) for a in (0.0, -0.0, 1 / 3) for b in (-0.0, 3.5e17)]),
).map(lambda a: a.reshape(-1, 1).view(np.float64))


def reference_payload(source: str, params: QiParams, results) -> dict:
    """The payload dict `simulate` once built and walked: keys in any order,
    since the walk sorts them."""
    return {
        "source": source,
        "params": {"cycles": params.cycles, "theta_rule": params.theta_rule,
                   "absorb": params.absorb_prob, "loss": params.cycle_loss},
        "branches": [{
            "classical": dict(r.classical),
            "failed": r.failed,
            "branch_weight": r.branch_weight,
            "success_probability": r.success_probability,
            "state": {
                "subsystems": [s.name for s in r.final_state.layout],
                "dims": [s.dim for s in r.final_state.layout],
                "amplitudes": r.final_state.amps.reshape(-1, 1).view(np.float64),
            },
        } for r in results],
        "success_probability": sum(float(r.success_probability) for r in results),
    }


def _w_branch() -> np.ndarray:
    """A (256, 2) view of 256 amplitudes, 32 of its 512 cells nonzero, as in
    a wstate-4 branch at finite depth."""
    amps = np.zeros(256, dtype=complex)
    amps[[0, 2, 8, 10, 32, 34, 40, 42, 128, 130, 136, 138, 160, 162, 168, 170]] = (
        np.linspace(-0.5, 0.5, 16) + 1j * np.linspace(0.3, -0.2, 16) + 1e-3j)
    return amps.reshape(-1, 1).view(np.float64)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_float_arrays(), _complex_views))
@example(_w_branch())
@example(np.zeros((7, 2)))
@example(np.array([[-0.0, -0.25], [-1e-13, -0.0], [-0.0, -0.0], [-3.5e17, 0.0]]))
@example(np.array([[5e-324, -0.0], [0.0, -2.5e-310], [-5e-324, 2.5e-310]]))
@example(np.zeros((0, 2)))
@example(np.array([]))
@example(np.array([0.25, -0.0, 1e-300, -3.5e17, 1 / 3]))
@example(np.array([[0.5, -0.0], [0.0, 0.1], [-1e-13, 2.0]]))
@example(np.array([[0.7071067811865476, -0.0]]))
@example(np.array([[-0.0, -0.0], [-0.0, 0.0]]))
@example(np.array([[-0.0, -0.0], [-0.0, 0.5]]))
@example(np.array([0.5 - 0.0j, -0.0 + 1j, 1 / 3 + 0j, -0.0 - 0.0j]).reshape(-1, 1).view(np.float64))
def test_float_array_matches_reference(arr):
    assert _float_array(arr) == reference_emit_json(arr)


_weights = _floats | _floats.map(np.float64)


def _unchecked_state(layout, amps) -> StateVector:
    # a state over any amplitudes, 1e16-scale ones too: the writer prints
    # what it is given, so the norm check is left out, as StateVector.copy
    # leaves it out
    state = object.__new__(StateVector)
    state.layout, state.amps, state.batch = layout, amps, None
    return state


@st.composite
def _results(draw):
    """A `RunResult` with names that need escaping, any finite amplitudes,
    and an empty layout among the layouts drawn."""
    names = draw(st.lists(_names, max_size=3, unique=True))
    layout = tuple(SubsystemSpec(name, "photon", PHOTON_DIM) if draw(st.booleans())
                   else SubsystemSpec(name, "particle", draw(st.integers(3, 4)))
                   for name in names)
    amps = draw(arrays(np.complex128, tuple(s.dim for s in layout), elements=st.builds(
        complex, _floats, _floats)))
    classical = draw(st.dictionaries(_names, st.integers() | st.integers(0, 7).map(np.int64),
                                     max_size=3))
    return RunResult(_unchecked_state(layout, amps), classical, draw(_weights),
                     draw(st.booleans() | st.builds(np.bool_, st.booleans())),
                     draw(_weights))


_chances = st.sampled_from([0.0, -0.0, 1.0, 0, 1, 5e-324, 1 / 3]) | st.floats(0.0, 1.0)


@st.composite
def _params(draw):
    if draw(st.booleans()):
        return QiParams(cycles=None, absorb_prob=draw(_chances.filter(lambda a: a > 0)))
    return QiParams(cycles=draw(st.integers(1, 10**9)),
                    theta_rule=draw(st.sampled_from([PI_OVER_N, PI_OVER_2N])),
                    absorb_prob=draw(_chances), cycle_loss=draw(_chances.filter(lambda x: x < 1)))


@settings(max_examples=100, deadline=None)
@given(_names, _params(), st.lists(_results(), max_size=3))
@example('"\\\x01é', QiParams(cycles=None), [
    RunResult(_unchecked_state((), np.array(-0.0 + 0j)), {}, -0.0, np.bool_(True), 5e-324),
    RunResult(_unchecked_state((SubsystemSpec('a"\\', "particle", 3),),
                               np.array([1e16, -0.0j, 2.5e-310])), {"m\n": 1}, 1.0, False, 0.5)])
# two numpy success probabilities whose total passes the largest double: a
# sum of numpy scalars warned of the overflow, where Python floats give inf
@example("s", QiParams(cycles=None), [
    RunResult(_unchecked_state((), np.array(0j)), {}, np.float64(1.7e308), False, 0.0)] * 2)
def test_simulate_json_matches_reference(source, params, results):
    assert (_simulate_json(source, params, results)
            == reference_emit_json(reference_payload(source, params, results)))


@pytest.mark.parametrize("shape", [(3, 0), (2, 0, 3), (1, 2, 0)])
def test_empty_inner_axis_prints_like_its_list(shape):
    # the reference's array path steps its bracketing by the inner axis
    # length and so raises on these; its list path shows the intended text
    arr = np.zeros(shape)
    text = json.dumps(arr.tolist(), separators=(",", ":"))
    assert _float_array(arr) == reference_emit_json(arr.tolist()) == text


def _stdout(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


_FINITE = {
    "333": ["--cycles", "333", "--absorb", "0.9", "--loss", "1e-3"],
    "17": ["--cycles", "17", "--theta", "pi-over-2n"],
    "2": ["--cycles", "2", "--absorb", "0.5", "--loss", "0.01"],
}


@pytest.mark.parametrize("flags", sorted(_FINITE))
@pytest.mark.parametrize("name", sorted(DEMOS))
def test_simulate_stdout_matches_reference_rendering(name, flags):
    argv = ["simulate", "--demo", name, *_FINITE[flags]]
    params = _params_from(build_parser().parse_args(argv))
    payload = reference_payload(name, params, run_all_branches(DEMOS[name](), params))
    assert _stdout(argv) == (0, reference_emit_json(payload) + "\n")


# sha256 of the stdout of each command line: `simulate` on every demo in
# the exact limit and at two finite depths, as JSON, as CSV and (at finite
# depth) as one sampled branch; the circuit file `cnot` prints for each
# family and the half-memory alias, recorded before the families shared
# one CZ->CNOT step; and `montecarlo`'s estimate, a fixed function of its
# seeded stream, for each family.  The finite-depth amplitudes carry a full
# 12-digit mantissa and assume numpy's 80-bit long double (x86-64 Linux):
# where `np.longdouble` is plain float64, the last printed digit of some
# can move (ROADMAP item 5).  Some `simulate` digests hold only on OpenBLAS
# kernels with FMA (ROADMAP item 13).
STDOUT_SHA256 = {
    "simulate --demo bell --ideal --out json":
        "94a300e5025cc16d16e475d04cbdb6914f2a23281e6626540c8d41d47c3d6f5b",
    "simulate --demo bell --ideal --out csv":
        "b12a201c4758657b0bd22868697e3615d49de22e76c0b1dd3116026a0b9346a4",
    "simulate --demo cnot-direct-cx --ideal --out json":
        "ddcf22e20e2f8218f39ee67ea609e9843e39dc4237e07e270238a218d45da658",
    "simulate --demo cnot-direct-cx --ideal --out csv":
        "e5849e018e96970fb6e4735165d18f62bb257b482542a58d085fef2b1f872927",
    "simulate --demo cnot-direct-cz --ideal --out json":
        "e40c2eb11951701481e548093425fca7fbffa74ff78e3431d221725f17a32534",
    "simulate --demo cnot-direct-cz --ideal --out csv":
        "e5849e018e96970fb6e4735165d18f62bb257b482542a58d085fef2b1f872927",
    "simulate --demo cnot-half-memory-keep-control --ideal --out json":
        "6b0865b0104a32a7164152b342f88d7c1a38229842b49bd8609753d1e805ef88",
    "simulate --demo cnot-half-memory-keep-control --ideal --out csv":
        "9bcfb15827dc8cc90efa98e3db9eef6d94d1f68e285300ecc6675bc23db8d461",
    "simulate --demo cnot-half-memory-keep-target --ideal --out json":
        "e75fdcdd6198e1aab562d5a6eaab198edc3f1a9e131efd6e67147ee3777083ae",
    "simulate --demo cnot-half-memory-keep-target --ideal --out csv":
        "9bcfb15827dc8cc90efa98e3db9eef6d94d1f68e285300ecc6675bc23db8d461",
    "simulate --demo cnot-memory --ideal --out json":
        "0325b4bca382ac5ad3d03cad578c40d2c3ac3dfdb13616bbce87a297791e6f3f",
    "simulate --demo cnot-memory --ideal --out csv":
        "f124694e225ea3d8e27e5210e4495aa10868ebc2cc71fbc39c9c20992a5ab570",
    "simulate --demo memory --ideal --out json":
        "5d5724b7b5dbfebf3ba098ff807bc20797a9acf724e1a8140e9079f4eb3e3c0e",
    "simulate --demo memory --ideal --out csv":
        "a67bb237cff1f0cda2b423929c85f4a169146ad80357d23c4dc08efd487ed82c",
    "simulate --demo qicz --ideal --out json":
        "3b90955311f45566b23ce1e7ce10854b91daa8e6b2ae256e41c0425c9c040a4b",
    "simulate --demo qicz --ideal --out csv":
        "8d6fc590a6e635020f98217d194d54581efafbf5556f8474dc51834baa47df43",
    "simulate --demo toffoli --ideal --out json":
        "c838ceb8a1230b4aeba49c97a451339be90aca0742f6f518b6ba3d1d8f9c6f61",
    "simulate --demo toffoli --ideal --out csv":
        "8d6fc590a6e635020f98217d194d54581efafbf5556f8474dc51834baa47df43",
    "simulate --demo wstate-2 --ideal --out json":
        "ae111ab101dd0bc20a36013466693a49fb83f60a219783ca712102eb92e184b7",
    "simulate --demo wstate-2 --ideal --out csv":
        "a6983140ccafd161085081017e1636cae384f1f05f177f5d93b01b28f2aec4e5",
    "simulate --demo wstate-3 --ideal --out json":
        "da7323466448167220fb326cd150e0d8fd598f0152d819aaf213f07822a4ac63",
    "simulate --demo wstate-3 --ideal --out csv":
        "03f09435fabd2ebacd5e4205ea3bd934f3913979f9d2a79659c89ebe05226cdc",
    "simulate --demo wstate-4 --ideal --out json":
        "166d87d172ad641c4609dd22b6ccc8b31e143c06ceddfb9399c4a65f2eb07eb4",
    "simulate --demo wstate-4 --ideal --out csv":
        "e366fe6782eb5f1fda0c3a42e99bff64ba5b6ea25081c0dc69d20d62ea765614",
    "simulate --demo bell --cycles 17 --theta pi-over-2n":
        "f7e814376ca7c61f52c3fd1c38101b634be71f680720097c0200ad976b3b6653",
    "simulate --demo bell --cycles 17 --theta pi-over-2n --out csv":
        "4a061b596470e021ce84578f857a3ab31cac05bcdb2ede5484976afc7bbe563a",
    "simulate --demo bell --cycles 17 --theta pi-over-2n --branches sample --seed 3":
        "c9d885ac66d9fd744832d6650c159307bb193e36d0d05c1349997a72da6b7ca7",
    "simulate --demo bell --cycles 333 --absorb 0.9 --loss 1e-3":
        "68dccdebcd227a09c2d072060c206879ba07ddd74be804ef8becb5d14a14b8ce",
    "simulate --demo bell --cycles 333 --absorb 0.9 --loss 1e-3 --out csv":
        "08ccd1cfe251cfe1e8b32144ae3f1614b4ffe5ef457e568f167f4e8bc40a5dd7",
    "simulate --demo bell --cycles 333 --absorb 0.9 --loss 1e-3 --branches sample --seed 3":
        "26af3ceb52dda76b716f0a1bfeb5dd3fd6e8cc38d2d6fd25a354ac3bb87f9187",
    "simulate --demo cnot-direct-cx --cycles 17 --theta pi-over-2n":
        "904bf5ad5764ac5ce9b6cd8155aeee85221bf5cd116ede2a5bb91fcbb4000504",
    "simulate --demo cnot-direct-cx --cycles 17 --theta pi-over-2n --out csv":
        "97d583fd4c173634383194a63595415cea83811d439d19bd948418efb9871ffa",
    "simulate --demo cnot-direct-cx --cycles 17 --theta pi-over-2n --branches sample --seed 3":
        "5ef4391988d5c7ddd5d7d02a7b8097e05be6a4865957d9bbd5b8875a22c19430",
    "simulate --demo cnot-direct-cx --cycles 333 --absorb 0.9 --loss 1e-3":
        "98a6f50537f483d2bbd2b67770f9e4381db9b8806c63e7b05c206241b0e9a2db",
    "simulate --demo cnot-direct-cx --cycles 333 --absorb 0.9 --loss 1e-3 --out csv":
        "1eef92930a63d5bfa0fa519a0c84b3ccdf8fe7889cf00073e26bbd3cd60966eb",
    "simulate --demo cnot-direct-cx --cycles 333 --absorb 0.9 --loss 1e-3 --branches sample --seed 3":
        "2f7db91aa76daad4d610cdfa4bf7ca4cdf814180c1f76b1941f5bd3a62161dc9",
    "simulate --demo cnot-direct-cz --cycles 17 --theta pi-over-2n":
        "9f499fc5f39aa19ef6fc00c5a97f52bb0729e64dab46a7a156e8fb8745333626",
    "simulate --demo cnot-direct-cz --cycles 17 --theta pi-over-2n --out csv":
        "97d583fd4c173634383194a63595415cea83811d439d19bd948418efb9871ffa",
    "simulate --demo cnot-direct-cz --cycles 17 --theta pi-over-2n --branches sample --seed 3":
        "2cd569de7dcd0642a0a1940b82a725c66def500d71a2bac50746e4e746a7155a",
    "simulate --demo cnot-direct-cz --cycles 333 --absorb 0.9 --loss 1e-3":
        "2be8f02a726321f7685abec1ef0a9fb97a8ec5520c0b40720d5dc92ead767cab",
    "simulate --demo cnot-direct-cz --cycles 333 --absorb 0.9 --loss 1e-3 --out csv":
        "1eef92930a63d5bfa0fa519a0c84b3ccdf8fe7889cf00073e26bbd3cd60966eb",
    "simulate --demo cnot-direct-cz --cycles 333 --absorb 0.9 --loss 1e-3 --branches sample --seed 3":
        "5ed86128809e1fa1342097a13987a5cbdba7c338af7452441717b1c3ecff18f3",
    "simulate --demo cnot-half-memory-keep-control --cycles 17 --theta pi-over-2n":
        "fc63c8a5bfa5422fc4ec8541a1adac4dbb182da8fbf58566549b2d38bc88fd71",
    "simulate --demo cnot-half-memory-keep-control --cycles 17 --theta pi-over-2n --out csv":
        "89d90c47bedbfbdb0521f0d779796dcefcfd36fdd93e2885c095ada8da70ca13",
    "simulate --demo cnot-half-memory-keep-control --cycles 17 --theta pi-over-2n --branches sample --seed 3":
        "60833b2067dd3178fdeb19db5c4889d4aa884395e9db6ecd03bee0d2d3ae5b6f",
    "simulate --demo cnot-half-memory-keep-control --cycles 333 --absorb 0.9 --loss 1e-3":
        "c14757f04bf22f520bc0e12585038346deaa86d1fdf9284b5b0dff45f191ae45",
    "simulate --demo cnot-half-memory-keep-control --cycles 333 --absorb 0.9 --loss 1e-3 --out csv":
        "c0776ad050181b75d7edae4c2086043312a4328b3b482b6ec4708bd9d32422a1",
    "simulate --demo cnot-half-memory-keep-control --cycles 333 --absorb 0.9 --loss 1e-3 --branches sample --seed 3":
        "fbe9252292efe45d1bbd59de02474d8ba300d0b2bfcf8b4489bd68ce31e94010",
    "simulate --demo cnot-half-memory-keep-target --cycles 17 --theta pi-over-2n":
        "1cc53a7d4ca5ee6f0c9de307d0a65520e2fa16035e0e7a24850dff28c6d9588e",
    "simulate --demo cnot-half-memory-keep-target --cycles 17 --theta pi-over-2n --out csv":
        "0f87707810f8151af1fa9a17d6566686a6297f8fac99b00229fa15d893610a95",
    "simulate --demo cnot-half-memory-keep-target --cycles 17 --theta pi-over-2n --branches sample --seed 3":
        "b750d38f0537735799f7e3620ecc85c8dff2db428650bc74fd02d08e1c1cfeac",
    "simulate --demo cnot-half-memory-keep-target --cycles 333 --absorb 0.9 --loss 1e-3":
        "0b31773b7538764707282c904cbf9c9c24c82ad872bf1887d941650fdcf0d7f2",
    "simulate --demo cnot-half-memory-keep-target --cycles 333 --absorb 0.9 --loss 1e-3 --out csv":
        "bc98368814ff6acfc5a7fbbe559238b22caf1900ab09baa1f36f9884c5f4f9ac",
    "simulate --demo cnot-half-memory-keep-target --cycles 333 --absorb 0.9 --loss 1e-3 --branches sample --seed 3":
        "bfda03e0ec3db0e2ca9cdcd67810dc26bb00637b0055f4381e947394b2678aaf",
    "simulate --demo cnot-memory --cycles 17 --theta pi-over-2n":
        "012212ae8d5285e195b93964c6837d052943b43175ef3d903be75cc3b17d93df",
    "simulate --demo cnot-memory --cycles 17 --theta pi-over-2n --out csv":
        "cbedb5000899da2469acb620a8c47accf047b2aa922a958d95fdd711fc90b0b5",
    "simulate --demo cnot-memory --cycles 17 --theta pi-over-2n --branches sample --seed 3":
        "c8320283990b62eeb398eb4685c02b02832ffac98f10ef6ef3510bffdc39a840",
    "simulate --demo cnot-memory --cycles 333 --absorb 0.9 --loss 1e-3":
        "342bbed9b43faabed9167241bdf2cbc983e7f06dbcf712fa2dbcd22d371d6dd8",
    "simulate --demo cnot-memory --cycles 333 --absorb 0.9 --loss 1e-3 --out csv":
        "3a677558215862cd25b66a18df967774d87fb9d2dcfb2811cd7781fac3006afb",
    "simulate --demo cnot-memory --cycles 333 --absorb 0.9 --loss 1e-3 --branches sample --seed 3":
        "c39d3ae0c249b6e7bf37877879b1be0aa54135d2950df9cae7fa7a6cd4160446",
    "simulate --demo memory --cycles 17 --theta pi-over-2n":
        "e2abbb57b9db1982bf19bca95d870491e61d549649bc5cf8d502035c9b00b055",
    "simulate --demo memory --cycles 17 --theta pi-over-2n --out csv":
        "7332df50ae7f55c6c78e7c21baa68c447049f60421c02cbe135de82da10376e5",
    "simulate --demo memory --cycles 17 --theta pi-over-2n --branches sample --seed 3":
        "29c44f4c7a092e0cef806448c6a989e67f137aa6531a742b61e2b775291e309c",
    "simulate --demo memory --cycles 333 --absorb 0.9 --loss 1e-3":
        "864b686ebb0da00e1a8ef6647d2f84f7940dfff1cc8e2dda100574a219b837f3",
    "simulate --demo memory --cycles 333 --absorb 0.9 --loss 1e-3 --out csv":
        "fbe1095610badc81cba10df337c63e0c48b750fd369a85131085842013a50349",
    "simulate --demo memory --cycles 333 --absorb 0.9 --loss 1e-3 --branches sample --seed 3":
        "c89c9e841b941c64d41b83d459d7774f5578e6a29d0ad0dd1aaf8022a8eb34a7",
    "simulate --demo qicz --cycles 17 --theta pi-over-2n":
        "718ee2c789dd4668d878b7e139e6694a459268ceb5f0edf0a6505c257198fa84",
    "simulate --demo qicz --cycles 17 --theta pi-over-2n --out csv":
        "cd2516bc5bdc8ac54d5305606de9ac10f7891a1e62ec3ea28df5b37f29cc2c28",
    "simulate --demo qicz --cycles 17 --theta pi-over-2n --branches sample --seed 3":
        "718ee2c789dd4668d878b7e139e6694a459268ceb5f0edf0a6505c257198fa84",
    "simulate --demo qicz --cycles 333 --absorb 0.9 --loss 1e-3":
        "b280b0a0de7c3e3da63701daab58ce90bcb6e737204eeac9d23e016b5bbab113",
    "simulate --demo qicz --cycles 333 --absorb 0.9 --loss 1e-3 --out csv":
        "9c2349c9ade93e4db013fc1f081753eeb5b28711d345bdb7c3cc57c1b7c7f00b",
    "simulate --demo qicz --cycles 333 --absorb 0.9 --loss 1e-3 --branches sample --seed 3":
        "b280b0a0de7c3e3da63701daab58ce90bcb6e737204eeac9d23e016b5bbab113",
    "simulate --demo toffoli --cycles 17 --theta pi-over-2n":
        "1ef7ad9df1a21dce0edf3aada34b16f5b1c97b91a98a21cb43916c15a9463fd5",
    "simulate --demo toffoli --cycles 17 --theta pi-over-2n --out csv":
        "ac07f58ce29703d3e25cfc3cd05c56ab3cb1d0cd4d7628aad982831ffcdec0e1",
    "simulate --demo toffoli --cycles 17 --theta pi-over-2n --branches sample --seed 3":
        "1ef7ad9df1a21dce0edf3aada34b16f5b1c97b91a98a21cb43916c15a9463fd5",
    "simulate --demo toffoli --cycles 333 --absorb 0.9 --loss 1e-3":
        "2257ddeda97b860899cba84220d5a6f6498bb4105a0b113d705b8a928ca97416",
    "simulate --demo toffoli --cycles 333 --absorb 0.9 --loss 1e-3 --out csv":
        "a837be5c11e4c6cfbff7e3bd4299c469197a1c5ab27422af68778ec2e4fdc72e",
    "simulate --demo toffoli --cycles 333 --absorb 0.9 --loss 1e-3 --branches sample --seed 3":
        "2257ddeda97b860899cba84220d5a6f6498bb4105a0b113d705b8a928ca97416",
    "simulate --demo wstate-2 --cycles 17 --theta pi-over-2n":
        "a7c76118c981660f4652592f723bcd3955aee4f17bcda3a440b6fd51e48d304e",
    "simulate --demo wstate-2 --cycles 17 --theta pi-over-2n --out csv":
        "a456bdc3d20c04782ccfe9b3b881fe5857f829f3e6d17135d7a2f8a9cbf66e86",
    "simulate --demo wstate-2 --cycles 17 --theta pi-over-2n --branches sample --seed 3":
        "9b7e250e8e116b37dc3e5dca3085d02faa61818765f650542b8460ebb0de730e",
    "simulate --demo wstate-2 --cycles 333 --absorb 0.9 --loss 1e-3":
        "fb06ed5af7cb221c18d4ee622be7fdb10a0e1bfdf4e1eeae1adcd032b536a160",
    "simulate --demo wstate-2 --cycles 333 --absorb 0.9 --loss 1e-3 --out csv":
        "71f8801ca3b47784f3b0fc93b5a5d8d699817fb347dbe7a4c12db4901b0f59eb",
    "simulate --demo wstate-2 --cycles 333 --absorb 0.9 --loss 1e-3 --branches sample --seed 3":
        "02c1f551630fb9ee2c7d9b71288efae3fea009e090b0c54795b09c0c28990d2e",
    "simulate --demo wstate-3 --cycles 17 --theta pi-over-2n":
        "90765cd00be6a796823e32f0e75962e981f78c873c2e13dc992a79075a549858",
    "simulate --demo wstate-3 --cycles 17 --theta pi-over-2n --out csv":
        "2dd7d63988c0e4522655f293bc4d77dc4b16697bd299e80387bf5ec4a94d361f",
    "simulate --demo wstate-3 --cycles 17 --theta pi-over-2n --branches sample --seed 3":
        "4cffac247d7acae86bbd36f2677ffa3c81dd609bf2ce57872b2823d415a704bb",
    "simulate --demo wstate-3 --cycles 333 --absorb 0.9 --loss 1e-3":
        "c6b4b9a0541dfa9c6b0c562d7f51e2cb9d3ac92a34024a88befa0d879dbd8e55",
    "simulate --demo wstate-3 --cycles 333 --absorb 0.9 --loss 1e-3 --out csv":
        "42949609fb329dccd356fc6c41b015aeb3e4154af0c2f907636556541325c868",
    "simulate --demo wstate-3 --cycles 333 --absorb 0.9 --loss 1e-3 --branches sample --seed 3":
        "c84e3a61533944cd6dbd8c4b23d06f19fcd06cde1ddcb765723a844230c86eee",
    "simulate --demo wstate-4 --cycles 17 --theta pi-over-2n":
        "d01bf4a552011412300c285b43bfb46798b6716e782b68d01f7155e60f727ecc",
    "simulate --demo wstate-4 --cycles 17 --theta pi-over-2n --out csv":
        "aff09990b71846bdf45b587928689896d7817ddb7e60d3265896873bcb722eca",
    "simulate --demo wstate-4 --cycles 17 --theta pi-over-2n --branches sample --seed 3":
        "6194d660515a1345818aceb0dec39ad3d6ecb4aa8bf70b39a038aaf45c279080",
    "simulate --demo wstate-4 --cycles 333 --absorb 0.9 --loss 1e-3":
        "1d14bf8ece8a90497ce49f37ca8c64e5f734f4df6465dfc9ac48d34001cd0504",
    "simulate --demo wstate-4 --cycles 333 --absorb 0.9 --loss 1e-3 --out csv":
        "55da950dfb454be75c74bebfa985d992e956034f70c5b28cae48ae2941cbbba4",
    "simulate --demo wstate-4 --cycles 333 --absorb 0.9 --loss 1e-3 --branches sample --seed 3":
        "ad8baeaa248a0ee96016cf3ddae5a6d7f92f14f0878321b487b5e6da35c556dd",
    "cnot --family direct-cx": "56aed1d42c2cd04e543c312abeae649efc524dc99c9a615c1aed17a877b693bd",
    "cnot --family direct-cz": "d0be64cf2b5e01c8eb2ed81b5cafafa65555509790fcc2ad4f45b1abbb60cd52",
    "cnot --family half-memory": "1a43157f79eb2e4ec94639c3c5a3e98d737e24b8b5736b4c7d2709bb66fdd0a6",
    "cnot --family half-memory-keep-control":
        "1a43157f79eb2e4ec94639c3c5a3e98d737e24b8b5736b4c7d2709bb66fdd0a6",
    "cnot --family half-memory-keep-target":
        "7cefa23a1e52a19fafca769ef17086261f63057eb07da37222810aac63014894",
    "cnot --family memory": "60b0c1e789193fa2f1627f1975a8efe82321ee27dfcf5b0c527e0c3cf13e3cae",
    "montecarlo --family direct-cx --profile 0.97,0.93,0.9,0.88,0.92 --trials 100000 --seed 2026":
        "06cea1dad24cde1b61fab9bdd161a478aac78cfa6773a41c785afc7ad9af8b95",
    "montecarlo --family direct-cz --profile 0.97,0.93,0.9,0.88,0.92 --trials 100000 --seed 2026":
        "84cfffda0c11207bbb908039f6b498cebbd953178ab3273e516750e98341c7dd",
    "montecarlo --family half-memory-keep-control --profile 0.97,0.93,0.9,0.88,0.92 --trials 100000 --seed 2026":
        "e023ff554006a3703e7cdd94e67b6045dff129d2b507615306c8b5ea08358999",
    "montecarlo --family half-memory-keep-target --profile 0.97,0.93,0.9,0.88,0.92 --trials 100000 --seed 2026":
        "c646a5e0bfeddb7d7b09500092d708e4f7171935ff30270f38d4f17c1554cc8e",
    "montecarlo --family memory --profile 0.97,0.93,0.9,0.88,0.92 --trials 100000 --seed 2026":
        "a82732902002c0ad9058b6dbb09eb47642b3bdcac4794a0ce2eabb2281aa3926",
}


def test_pins_cover_every_demo_and_family():
    runs = {}
    for argv in STDOUT_SHA256:
        command, _, name, *flags = argv.split()
        runs.setdefault(command, {}).setdefault(name, set()).add(" ".join(flags))
    assert sorted(runs) == ["cnot", "montecarlo", "simulate"]
    assert sorted(runs["simulate"]) == sorted(DEMOS)
    # every demo under the same settings
    assert len({frozenset(settings) for settings in runs["simulate"].values()}) == 1
    assert sorted(runs["cnot"]) == sorted([*CNOT_FAMILIES, "half-memory"])
    assert sorted(runs["montecarlo"]) == sorted(CNOT_FAMILIES)


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256))
def test_stdout_is_pinned(argv):
    code, stdout = _stdout(argv.split())
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256[argv]
