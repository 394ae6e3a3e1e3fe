"""Run the benchmark in alternating pairs: a parent commit against the
working tree.

    python3 tools/bench_pairs.py --workload sample-ideal,verify-finite --parent HEAD~1 \\
        --pairs 10 --seed 1009 [--seconds 30]

exports the parent with `git archive` and copies the working tree's
tracked and unignored files, as they are on disk, into two sibling
directories of one temporary directory, `parent` and `change`, so that the
two sides differ in their files alone, not in where they lie.  It runs
them only if both hold the same `bench/` and `BENCHMARK.json`, so both
sides run the same benchmark.  `--workload` takes one
workload that BENCHMARK.json names, or several separated by commas, and
`--pairs` a count of at least 1.  Each pair runs `python3 bench/run.py
--trace 0` once on each side for each workload in turn, the parent first
in even pairs and the change first in odd ones.  `--seconds` defaults to
`run_seconds` in BENCHMARK.json.  Every run compiles the package from
source: it writes no byte-code (`PYTHONDONTWRITEBYTECODE=1`), and neither
side's copy holds a `__pycache__`, since the export and the copy take
only files that git tracks or does not ignore.  No `PYTHONPYCACHEPREFIX`
reaches a run, the caller's included, so numpy and the standard library
load their installed byte-code, as they do in a plain `bench/run.py`.  A
run that exits non-zero, is not `correct` or has failed ops stops the
command with exit code 1.

Each workload gets its own summary, after a `workload=<name>` line.  For
each end-to-end metric BENCHMARK.json lists, the summary prints:

- each side's median and quartiles, and the change's median against the
  parent's as a signed percentage of the parent's (`n/a` when the
  parent's median is 0);
- how many pairs the change won in the metric's `better` direction (ties
  count for neither side), and the one-sided sign-test p-value of those
  wins (`sign_test_p`, ties left out: 9 wins in 10 give 0.0107, 8 give
  0.0547);
- the median pair gain: the median of the per-pair relative differences
  d_i = (change_i - parent_i) / |parent_i|, signed so that positive is
  better, over the pairs whose parent value is not 0 (`n/a` when none
  is);
- whether a gain holds: the change wins at least 9 pairs in 10, and the
  medians differ in its favour by more than the parent's interquartile
  range.

It then gives the metric's verdict against its `bound`, a fraction of the
parent's median:

- `worse`: the change's median is behind the parent's by more than the
  bound;
- `unresolved`: the parent's interquartile range is wider than the bound,
  and not every change run beats every parent run;
- `within bound` otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHARED = ("bench", "BENCHMARK.json")  # what both sides must hold alike


def _files(root: Path, name: str) -> dict[str, bytes]:
    """Relative path -> bytes of the file or tree `name` under `root`,
    leaving out Python's byte-code caches."""
    top = root / name
    paths = [top] if top.is_file() else sorted(p for p in top.rglob("*") if p.is_file())
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in paths
            if "__pycache__" not in p.parts}


def export(ref: str, dest: Path) -> None:
    """The tree of `ref` in the repository at ROOT, written under `dest`."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def copy_working_tree(root: Path, dest: Path) -> None:
    """The working tree of the repository at `root`, written under `dest`:
    each tracked file as it is on disk, and each untracked file that no
    ignore rule excludes.  A tracked file deleted from disk is left out."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=root, capture_output=True,
                            check=True).stdout.decode()
    for name in sorted(set(listed.split("\0")) - {""}):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def result_of(stdout: str) -> dict:
    """The JSON object on the last line of a bench run's stdout; raises
    ValueError when the run was not correct or had failed ops."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise ValueError(f"the run was not clean: correct={result['correct']} "
                         f"failed={result['failed']} of {result['attempted']}")
    return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def sign_test_p(wins: int, losses: int) -> float:
    """The one-sided sign-test p-value of `wins` against `losses`, ties
    left out: the chance of at least `wins` heads in `wins + losses` fair
    tosses (1.0 when no pair is decided)."""
    n = wins + losses
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n


def summary(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[str]:
    """One line per end-to-end metric over paired results: pair i is
    (parent[i], change[i])."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change result per pair")
    lines = [f"pairs={len(parent)}"]
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        old = [r["metrics"][name]["value"] for r in parent]
        new = [r["metrics"][name]["value"] for r in change]
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        losses = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        rel = [sign * (b - a) / abs(a) for a, b in zip(old, new) if a]
        gain = f"{100 * statistics.median(rel) + 0.0:+.2f}%" if rel else "n/a"
        (o1, om, o3), (n1, nm, n3) = _quartiles(old), _quartiles(new)
        holds = 10 * wins >= 9 * len(old) and sign * (nm - om) > o3 - o1
        delta = f"{100 * (nm - om) / abs(om):+.2f}%" if om else "n/a"
        bound = metric["bound"] * abs(om)
        if sign * (nm - om) < -bound:
            verdict = "worse"
        elif o3 - o1 > bound and min(sign * b for b in new) <= max(sign * a for a in old):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        lines.append(f"{name} ({metric['better']} is better): parent {om:.6g} "
                     f"[{o1:.6g}, {o3:.6g}] -> change {nm:.6g} [{n1:.6g}, {n3:.6g}] "
                     f"({delta}); "
                     f"change won {wins} of {len(old)}, sign test "
                     f"p={sign_test_p(wins, losses):.3g}; median pair gain {gain}; gain holds: "
                     f"{'yes' if holds else 'no'}; bound {metric['bound']:g}: {verdict}")
    return lines


def _bench(tree: Path, workload: str, args: argparse.Namespace) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env)
    if done.returncode:
        raise ValueError(f"exit code {done.returncode}: {done.stderr.strip()[-2000:]}")
    return result_of(done.stdout)


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="one workload, or several separated "
                   f"by commas, from {','.join(names)}")
    p.add_argument("--parent", default="HEAD", help="git ref of the parent side")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error(f"--pairs must be at least 1, got {args.pairs}")
    workloads = args.workload.split(",")
    if not set(workloads) <= set(names) or len(set(workloads)) != len(workloads):
        p.error(f"--workload takes distinct names from {','.join(names)}, "
                f"got {args.workload!r}")
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        export(args.parent, sides["parent"])
        copy_working_tree(ROOT, sides["change"])
        for name in SHARED:
            if _files(sides["parent"], name) != _files(sides["change"], name):
                print(f"bench_pairs: {name} differs between {args.parent} and the "
                      "working tree", file=sys.stderr)
                return 1
        results = {(side, w): [] for side in sides for w in workloads}
        for i in range(args.pairs):
            for w in workloads:
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    try:
                        results[side, w].append(_bench(sides[side], w, args))
                    except ValueError as exc:
                        print(f"bench_pairs: pair {i} {w} {side}: {exc}", file=sys.stderr)
                        return 1
            print(f"pair {i} done", file=sys.stderr, flush=True)
    for w in workloads:
        print(f"workload={w}")
        for line in summary(results["parent", w], results["change", w], config["end_to_end"]):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
