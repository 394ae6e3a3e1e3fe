"""The `simulate` JSON writer against the per-value emitter it replaced,
pins of `simulate` stdout at finite depth, and pins of the circuit files
`cnot` prints.

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


@settings(max_examples=200, deadline=None)
@given(st.one_of(_float_arrays(), _complex_views))
@example(np.zeros((0, 2)))
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


# sha256 of `simulate --demo <name> <flags>` stdout as JSON, as `--out csv`
# and as `--branches sample --seed 3`, recorded with the per-value emitter.
# Most amplitudes here carry a full 12-digit mantissa, unlike the --ideal
# pins in test_cli.py.  The digests assume numpy's 80-bit long double
# (x86-64 Linux): where `np.longdouble` is plain float64, the last printed
# digit of some amplitudes can move (ROADMAP item 5).
_MODES = ([], ["--out", "csv"], ["--branches", "sample", "--seed", "3"])
_FINITE_SHA256 = {
    ("bell", "333"): (
        "68dccdebcd227a09c2d072060c206879ba07ddd74be804ef8becb5d14a14b8ce",
        "08ccd1cfe251cfe1e8b32144ae3f1614b4ffe5ef457e568f167f4e8bc40a5dd7",
        "26af3ceb52dda76b716f0a1bfeb5dd3fd6e8cc38d2d6fd25a354ac3bb87f9187",
    ),
    ("bell", "17"): (
        "f7e814376ca7c61f52c3fd1c38101b634be71f680720097c0200ad976b3b6653",
        "4a061b596470e021ce84578f857a3ab31cac05bcdb2ede5484976afc7bbe563a",
        "c9d885ac66d9fd744832d6650c159307bb193e36d0d05c1349997a72da6b7ca7",
    ),
    ("cnot-direct-cx", "333"): (
        "98a6f50537f483d2bbd2b67770f9e4381db9b8806c63e7b05c206241b0e9a2db",
        "1eef92930a63d5bfa0fa519a0c84b3ccdf8fe7889cf00073e26bbd3cd60966eb",
        "2f7db91aa76daad4d610cdfa4bf7ca4cdf814180c1f76b1941f5bd3a62161dc9",
    ),
    ("cnot-direct-cx", "17"): (
        "904bf5ad5764ac5ce9b6cd8155aeee85221bf5cd116ede2a5bb91fcbb4000504",
        "97d583fd4c173634383194a63595415cea83811d439d19bd948418efb9871ffa",
        "5ef4391988d5c7ddd5d7d02a7b8097e05be6a4865957d9bbd5b8875a22c19430",
    ),
    ("cnot-direct-cz", "333"): (
        "2be8f02a726321f7685abec1ef0a9fb97a8ec5520c0b40720d5dc92ead767cab",
        "1eef92930a63d5bfa0fa519a0c84b3ccdf8fe7889cf00073e26bbd3cd60966eb",
        "5ed86128809e1fa1342097a13987a5cbdba7c338af7452441717b1c3ecff18f3",
    ),
    ("cnot-direct-cz", "17"): (
        "9f499fc5f39aa19ef6fc00c5a97f52bb0729e64dab46a7a156e8fb8745333626",
        "97d583fd4c173634383194a63595415cea83811d439d19bd948418efb9871ffa",
        "2cd569de7dcd0642a0a1940b82a725c66def500d71a2bac50746e4e746a7155a",
    ),
    ("cnot-half-memory-keep-control", "333"): (
        "ce4b2f3083f9dfde74047e284bbf84428ff1cfca36500323a1b43335614c2542",
        "c0776ad050181b75d7edae4c2086043312a4328b3b482b6ec4708bd9d32422a1",
        "fbe9252292efe45d1bbd59de02474d8ba300d0b2bfcf8b4489bd68ce31e94010",
    ),
    ("cnot-half-memory-keep-control", "17"): (
        "fc63c8a5bfa5422fc4ec8541a1adac4dbb182da8fbf58566549b2d38bc88fd71",
        "89d90c47bedbfbdb0521f0d779796dcefcfd36fdd93e2885c095ada8da70ca13",
        "60833b2067dd3178fdeb19db5c4889d4aa884395e9db6ecd03bee0d2d3ae5b6f",
    ),
    ("cnot-half-memory-keep-target", "333"): (
        "0b31773b7538764707282c904cbf9c9c24c82ad872bf1887d941650fdcf0d7f2",
        "bc98368814ff6acfc5a7fbbe559238b22caf1900ab09baa1f36f9884c5f4f9ac",
        "bfda03e0ec3db0e2ca9cdcd67810dc26bb00637b0055f4381e947394b2678aaf",
    ),
    ("cnot-half-memory-keep-target", "17"): (
        "1cc53a7d4ca5ee6f0c9de307d0a65520e2fa16035e0e7a24850dff28c6d9588e",
        "0f87707810f8151af1fa9a17d6566686a6297f8fac99b00229fa15d893610a95",
        "b750d38f0537735799f7e3620ecc85c8dff2db428650bc74fd02d08e1c1cfeac",
    ),
    ("cnot-memory", "333"): (
        "342bbed9b43faabed9167241bdf2cbc983e7f06dbcf712fa2dbcd22d371d6dd8",
        "3a677558215862cd25b66a18df967774d87fb9d2dcfb2811cd7781fac3006afb",
        "c39d3ae0c249b6e7bf37877879b1be0aa54135d2950df9cae7fa7a6cd4160446",
    ),
    ("cnot-memory", "17"): (
        "012212ae8d5285e195b93964c6837d052943b43175ef3d903be75cc3b17d93df",
        "cbedb5000899da2469acb620a8c47accf047b2aa922a958d95fdd711fc90b0b5",
        "c8320283990b62eeb398eb4685c02b02832ffac98f10ef6ef3510bffdc39a840",
    ),
    ("memory", "333"): (
        "864b686ebb0da00e1a8ef6647d2f84f7940dfff1cc8e2dda100574a219b837f3",
        "fbe1095610badc81cba10df337c63e0c48b750fd369a85131085842013a50349",
        "c89c9e841b941c64d41b83d459d7774f5578e6a29d0ad0dd1aaf8022a8eb34a7",
    ),
    ("memory", "17"): (
        "e2abbb57b9db1982bf19bca95d870491e61d549649bc5cf8d502035c9b00b055",
        "7332df50ae7f55c6c78e7c21baa68c447049f60421c02cbe135de82da10376e5",
        "29c44f4c7a092e0cef806448c6a989e67f137aa6531a742b61e2b775291e309c",
    ),
    ("qicz", "333"): (
        "b280b0a0de7c3e3da63701daab58ce90bcb6e737204eeac9d23e016b5bbab113",
        "9c2349c9ade93e4db013fc1f081753eeb5b28711d345bdb7c3cc57c1b7c7f00b",
        "b280b0a0de7c3e3da63701daab58ce90bcb6e737204eeac9d23e016b5bbab113",
    ),
    ("qicz", "17"): (
        "718ee2c789dd4668d878b7e139e6694a459268ceb5f0edf0a6505c257198fa84",
        "cd2516bc5bdc8ac54d5305606de9ac10f7891a1e62ec3ea28df5b37f29cc2c28",
        "718ee2c789dd4668d878b7e139e6694a459268ceb5f0edf0a6505c257198fa84",
    ),
    ("toffoli", "333"): (
        "2257ddeda97b860899cba84220d5a6f6498bb4105a0b113d705b8a928ca97416",
        "a837be5c11e4c6cfbff7e3bd4299c469197a1c5ab27422af68778ec2e4fdc72e",
        "2257ddeda97b860899cba84220d5a6f6498bb4105a0b113d705b8a928ca97416",
    ),
    ("toffoli", "17"): (
        "1ef7ad9df1a21dce0edf3aada34b16f5b1c97b91a98a21cb43916c15a9463fd5",
        "ac07f58ce29703d3e25cfc3cd05c56ab3cb1d0cd4d7628aad982831ffcdec0e1",
        "1ef7ad9df1a21dce0edf3aada34b16f5b1c97b91a98a21cb43916c15a9463fd5",
    ),
    ("wstate-2", "333"): (
        "fb06ed5af7cb221c18d4ee622be7fdb10a0e1bfdf4e1eeae1adcd032b536a160",
        "71f8801ca3b47784f3b0fc93b5a5d8d699817fb347dbe7a4c12db4901b0f59eb",
        "02c1f551630fb9ee2c7d9b71288efae3fea009e090b0c54795b09c0c28990d2e",
    ),
    ("wstate-2", "17"): (
        "a7c76118c981660f4652592f723bcd3955aee4f17bcda3a440b6fd51e48d304e",
        "a456bdc3d20c04782ccfe9b3b881fe5857f829f3e6d17135d7a2f8a9cbf66e86",
        "9b7e250e8e116b37dc3e5dca3085d02faa61818765f650542b8460ebb0de730e",
    ),
    ("wstate-3", "333"): (
        "5abb35ca0eab359dc4ab4d9b05937b3181b2d0ee5da8afd24db94cd0b41a9241",
        "42949609fb329dccd356fc6c41b015aeb3e4154af0c2f907636556541325c868",
        "c84e3a61533944cd6dbd8c4b23d06f19fcd06cde1ddcb765723a844230c86eee",
    ),
    ("wstate-3", "17"): (
        "90765cd00be6a796823e32f0e75962e981f78c873c2e13dc992a79075a549858",
        "2dd7d63988c0e4522655f293bc4d77dc4b16697bd299e80387bf5ec4a94d361f",
        "4cffac247d7acae86bbd36f2677ffa3c81dd609bf2ce57872b2823d415a704bb",
    ),
    ("wstate-4", "333"): (
        "dd9c037a1e9612df186342d48b744c47caa6ba840b2f0ce274889c4849a2b8d3",
        "55da950dfb454be75c74bebfa985d992e956034f70c5b28cae48ae2941cbbba4",
        "ad8baeaa248a0ee96016cf3ddae5a6d7f92f14f0878321b487b5e6da35c556dd",
    ),
    ("wstate-4", "17"): (
        "a0a3e93d918ae4d7f311cf7dac38f3df831673f2e1ea67643f06b39b89919a42",
        "aff09990b71846bdf45b587928689896d7817ddb7e60d3265896873bcb722eca",
        "6194d660515a1345818aceb0dec39ad3d6ecb4aa8bf70b39a038aaf45c279080",
    ),
}


def test_finite_pins_cover_every_demo():
    assert sorted({name for name, _ in _FINITE_SHA256}) == sorted(DEMOS)


@pytest.mark.parametrize("name, flags", sorted(_FINITE_SHA256))
def test_simulate_finite_stdout_is_pinned(name, flags):
    digests = []
    for mode in _MODES:
        code, stdout = _stdout(["simulate", "--demo", name, *_FINITE[flags], *mode])
        assert code == 0
        digests.append(hashlib.sha256(stdout.encode()).hexdigest())
    assert tuple(digests) == _FINITE_SHA256[name, flags]


# sha256 of `cnot --family <family>` stdout, the circuit file each CNOT
# builder emits, recorded before the families shared one CZ->CNOT step
_CNOT_SHA256 = {
    "memory": "60b0c1e789193fa2f1627f1975a8efe82321ee27dfcf5b0c527e0c3cf13e3cae",
    "half-memory-keep-control":
        "1a43157f79eb2e4ec94639c3c5a3e98d737e24b8b5736b4c7d2709bb66fdd0a6",
    "half-memory-keep-target":
        "7cefa23a1e52a19fafca769ef17086261f63057eb07da37222810aac63014894",
    "direct-cx": "56aed1d42c2cd04e543c312abeae649efc524dc99c9a615c1aed17a877b693bd",
    "direct-cz": "d0be64cf2b5e01c8eb2ed81b5cafafa65555509790fcc2ad4f45b1abbb60cd52",
    "half-memory": "1a43157f79eb2e4ec94639c3c5a3e98d737e24b8b5736b4c7d2709bb66fdd0a6",
}


def test_cnot_pins_cover_every_family():
    assert sorted(_CNOT_SHA256) == sorted([*CNOT_FAMILIES, "half-memory"])


@pytest.mark.parametrize("family", sorted(_CNOT_SHA256))
def test_cnot_stdout_is_pinned(family):
    code, stdout = _stdout(["cnot", "--family", family])
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == _CNOT_SHA256[family]
