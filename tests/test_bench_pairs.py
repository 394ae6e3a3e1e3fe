"""The paired-run summary in tools/bench_pairs.py, on canned result lines of
`bench/run.py`; no benchmark runs here."""

import argparse
import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
]


def _line(correct=True, failed=0, **values) -> str:
    """A last stdout line as `bench/run.py` prints it, after the lines
    before it."""
    result = {"correct": correct, "attempted": 120, "failed": failed,
              "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}
    return "record seed=0\nmetric op_p50_ms = 1 ms (samples=120)\n" + json.dumps(result)


def _pairs():
    parent, change = [], []
    for i in range(10):
        p50 = 3.0 + 0.01 * i  # median 3.045, quartiles 3.0225 and 3.0675
        parent.append(_line(op_p50_ms=p50, ops_per_s=60.0, setup_s=0.13,
                            peak_rss_mb=42.0 + 0.1 * i))
        change.append(_line(op_p50_ms=p50 - 0.1,  # wins 10, gap 0.1 over an IQR of 0.045
                            ops_per_s=60.0,  # ties: wins 0
                            setup_s=0.10 if i < 8 else 0.2,  # wins 8 of 10
                            peak_rss_mb=42.0 + 0.1 * i - 0.01))  # wins 10, gap inside the IQR
    return ([bench_pairs.result_of(out) for out in parent],
            [bench_pairs.result_of(out) for out in change])


def test_summary_gives_medians_quartiles_wins_and_the_rule():
    lines = bench_pairs.summary(*_pairs(), END_TO_END)
    assert lines[0] == "pairs=10"
    assert lines[1] == ("op_p50_ms (lower is better): parent 3.045 [3.0225, 3.0675] -> "
                        "change 2.945 [2.9225, 2.9675]; change won 10 of 10; gain holds: yes; "
                        "bound 0.25: within bound")
    assert lines[2] == ("ops_per_s (higher is better): parent 60 [60, 60] -> change 60 "
                        "[60, 60]; change won 0 of 10; gain holds: no; bound 0.25: within bound")
    assert lines[3].endswith("change won 8 of 10; gain holds: no; bound 0.25: within bound")
    assert lines[4].endswith("change won 10 of 10; gain holds: no; bound 0.15: within bound")
    assert len(lines) == 5


def test_a_gain_in_the_wrong_direction_never_holds():
    parent, change = _pairs()
    lines = bench_pairs.summary(change, parent, END_TO_END)
    assert lines[1].endswith("change won 0 of 10; gain holds: no; bound 0.25: within bound")


def test_summary_needs_one_result_per_side_per_pair():
    parent, change = _pairs()
    with pytest.raises(ValueError, match="one parent and one change result per pair"):
        bench_pairs.summary(parent, change[:-1], END_TO_END)
    one = bench_pairs.summary(parent[:1], change[:1], END_TO_END)
    assert one[1] == ("op_p50_ms (lower is better): parent 3 [3, 3] -> change 2.9 "
                      "[2.9, 2.9]; change won 1 of 1; gain holds: yes; "
                      "bound 0.25: within bound")


def test_each_metric_gets_a_verdict_against_its_bound():
    parent, change = [], []
    for i in range(10):
        parent.append(_line(op_p50_ms=3.0 + 0.01 * i,
                            ops_per_s=40.0 + 5 * i,  # IQR 22.5 over a median of 62.5
                            setup_s=0.1 * (i + 1),  # IQR 0.45 over a median of 0.55
                            peak_rss_mb=42.0))
        change.append(_line(op_p50_ms=4.0 + 0.01 * i,  # 33 % behind
                            ops_per_s=41.0 + 5 * i,  # ahead by 1, inside the spread
                            setup_s=0.05,  # below every parent run
                            peak_rss_mb=48.0))  # 14 % behind
    lines = bench_pairs.summary([bench_pairs.result_of(out) for out in parent],
                                [bench_pairs.result_of(out) for out in change], END_TO_END)
    assert [line.rpartition(": ")[2] for line in lines[1:]] == [
        "worse", "unresolved", "within bound", "within bound"]
    assert lines[1].endswith("gain holds: no; bound 0.25: worse")
    assert lines[4].endswith("gain holds: no; bound 0.15: within bound")


@pytest.mark.parametrize("out, message", [
    (_line(correct=False, op_p50_ms=1.0), "correct=False failed=0 of 120"),
    (_line(failed=2, op_p50_ms=1.0), "correct=True failed=2 of 120"),
    ("", "printed nothing"),
])
def test_a_run_that_is_not_clean_stops_the_pairs(out, message):
    with pytest.raises(ValueError, match=message):
        bench_pairs.result_of(out)


def test_files_leave_out_byte_code_caches(tmp_path):
    (tmp_path / "bench" / "__pycache__").mkdir(parents=True)
    (tmp_path / "bench" / "run.py").write_text("x = 1\n")
    (tmp_path / "bench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"\0")
    (tmp_path / "BENCHMARK.json").write_text("{}")
    assert bench_pairs._files(tmp_path, "bench") == {"bench/run.py": b"x = 1\n"}
    assert bench_pairs._files(tmp_path, "BENCHMARK.json") == {"BENCHMARK.json": b"{}"}


def test_each_run_compiles_from_source(monkeypatch, tmp_path):
    # each run writes no byte-code and reads its cache from a fresh, empty
    # prefix: never the caller's, and gone after the run
    prefixes = []

    def fake_run(cmd, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        prefixes.append(prefix)
        assert cmd[1:4] == ["bench/run.py", "--workload", "sample-ideal"] and cwd == tmp_path
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert prefix.is_dir() and not any(prefix.iterdir())
        return subprocess.CompletedProcess(cmd, 0, _line(op_p50_ms=1.0), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path))
    args = argparse.Namespace(seed=3, seconds=1.0)
    for _ in range(2):
        assert bench_pairs._bench(tmp_path, "sample-ideal", args)["correct"]
    assert len({*prefixes, tmp_path}) == 3
    assert not any(prefix.exists() for prefix in prefixes)


def _same_benchmark(ref, dest):
    # the export of a parent whose benchmark is the working tree's
    shutil.copytree(bench_pairs.ROOT / "bench", dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench_pairs.ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def test_each_workload_gets_its_own_summary(monkeypatch, capsys):
    runs = []

    def canned(tree, workload, args):
        side = "change" if tree == bench_pairs.ROOT else "parent"
        runs.append((len(runs) // 4, workload, side))
        # the change is faster on sample-ideal and the same on verify-finite
        p50 = 2.0 if side == "change" and workload == "sample-ideal" else 3.0
        return bench_pairs.result_of(_line(setup_s=0.1, ops_per_s=1000 / p50, op_p50_ms=p50,
                                           op_p90_ms=p50, peak_rss_mb=40.0))

    monkeypatch.setattr(bench_pairs, "export", _same_benchmark)
    monkeypatch.setattr(bench_pairs, "_bench", canned)
    assert bench_pairs.main(["--workload", "sample-ideal,verify-finite", "--pairs", "2"]) == 0
    assert runs == [(0, "sample-ideal", "parent"), (0, "sample-ideal", "change"),
                    (0, "verify-finite", "parent"), (0, "verify-finite", "change"),
                    (1, "sample-ideal", "change"), (1, "sample-ideal", "parent"),
                    (1, "verify-finite", "change"), (1, "verify-finite", "parent")]
    # per workload: its name, the pair count and the five metrics
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14
    assert lines[0:2] == ["workload=sample-ideal", "pairs=2"]
    assert lines[7:9] == ["workload=verify-finite", "pairs=2"]
    p50 = [line for line in lines if line.startswith("op_p50_ms")]
    assert p50[0].startswith("op_p50_ms (lower is better): parent 3 [3, 3] -> change 2 [2, 2]; "
                             "change won 2 of 2; gain holds: yes")
    assert p50[1].startswith("op_p50_ms (lower is better): parent 3 [3, 3] -> change 3 [3, 3]; "
                             "change won 0 of 2; gain holds: no")


@pytest.mark.parametrize("workloads", ["sample-ideal,nope", "verify-finite,verify-finite",
                                       "sample-ideal,"])
def test_workloads_are_distinct_names_from_the_benchmark(monkeypatch, capsys, workloads):
    monkeypatch.setattr(bench_pairs, "export", _same_benchmark)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--workload", workloads])
    assert exc.value.code == 2
    assert "--workload takes distinct names from verify-finite,simulate-finite,sample-ideal" \
        in capsys.readouterr().err
