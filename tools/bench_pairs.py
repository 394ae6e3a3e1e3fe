"""Run the benchmark in alternating pairs: a parent commit against the
working tree.

    python3 tools/bench_pairs.py --workload sample-ideal,verify-finite --parent HEAD~1 \\
        --pairs 10 --seed 1009 [--seconds 30]

exports the parent with `git archive` into a temporary directory, and runs
there only if the export's `bench/` and `BENCHMARK.json` equal the working
tree's, so both sides run the same benchmark.  `--workload` takes one
workload that BENCHMARK.json names, or several separated by commas.  Each
pair runs `python3 bench/run.py --trace 0` once on each side for each
workload in turn, the parent first in even pairs and the change first in
odd ones.  `--seconds` defaults to `run_seconds` in BENCHMARK.json.  Every
run compiles the package from source: it writes no byte-code
(`PYTHONDONTWRITEBYTECODE=1`) and reads its byte-code cache from a fresh,
empty `PYTHONPYCACHEPREFIX`, so a stray `__pycache__` in either tree skews
neither side.  A run that exits non-zero, is not `correct` or has failed
ops stops the command with exit code 1.

Each workload gets its own summary, after a `workload=<name>` line.  For
each end-to-end metric BENCHMARK.json lists, the summary prints each
side's median and quartiles, how many pairs the change won in the metric's
`better` direction (ties count for neither side), and whether a gain
holds: the change wins at least 9 pairs in 10, and the medians differ in
its favour by more than the parent's interquartile range.  It then gives
the metric's verdict against its `bound`, a fraction of the parent's
median:

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
import os
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
        (o1, om, o3), (n1, nm, n3) = _quartiles(old), _quartiles(new)
        holds = 10 * wins >= 9 * len(old) and sign * (nm - om) > o3 - o1
        bound = metric["bound"] * abs(om)
        if sign * (nm - om) < -bound:
            verdict = "worse"
        elif o3 - o1 > bound and min(sign * b for b in new) <= max(sign * a for a in old):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        lines.append(f"{name} ({metric['better']} is better): parent {om:.6g} "
                     f"[{o1:.6g}, {o3:.6g}] -> change {nm:.6g} [{n1:.6g}, {n3:.6g}]; "
                     f"change won {wins} of {len(old)}; gain holds: "
                     f"{'yes' if holds else 'no'}; bound {metric['bound']:g}: {verdict}")
    return lines


def _bench(tree: Path, workload: str, args: argparse.Namespace) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory() as pycache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": pycache}
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
    workloads = args.workload.split(",")
    if not set(workloads) <= set(names) or len(set(workloads)) != len(workloads):
        p.error(f"--workload takes distinct names from {','.join(names)}, "
                f"got {args.workload!r}")
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp)
        export(args.parent, parent_tree)
        for name in SHARED:
            if _files(parent_tree, name) != _files(ROOT, name):
                print(f"bench_pairs: {name} differs between {args.parent} and the "
                      "working tree", file=sys.stderr)
                return 1
        sides = {"parent": parent_tree, "change": ROOT}
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
