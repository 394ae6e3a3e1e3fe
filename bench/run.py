"""zenosim benchmark: one closed-loop client per workload, in one process.

Run from the repository root:

    python3 bench/run.py --workload verify-finite --seed 0 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics; `--trace 1` runs a fixed list
of ops once untraced and twice traced and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

BLAS_THREADS = 1  # at most nproc on any machine
MIN_OPS = 110  # so that at least 10 latencies lie beyond p90
SETUP_PROBES = 8  # extra set-ups in child processes; setup_s is the median
GAUGE_WARMUP = 30  # readings before the loop
SETUP_GAUGE_READINGS = 7  # readings right after each set-up
PROBE_TIMEOUT_S = 120
# Timings are CPU time (user + system) of this process, scaled to the
# host's reference speed (see gauge.py).  The benchmark runs one op at a
# time on one BLAS thread, so on an idle core CPU time equals wall time; on
# a shared virtual host it leaves out the time the hypervisor runs other
# guests, which swings wall time by up to 1.5x between runs.
clock = time.process_time


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Pass:
    """Runs ops one after another and keeps their latencies, failures and
    output fingerprints (not the outputs, so memory stays flat).  With
    `gauged`, it also reads the speed gauge around every op and keeps each
    op's scaled latency."""

    def __init__(self, workload, tracer=None, gauged=False):
        self.workload = workload
        self.tracer = tracer
        self.gauge = None
        if gauged:
            import gauge

            self.gauge = gauge
            gauge.readings(GAUGE_WARMUP)
        self.ops, self.fingerprints, self.latencies = [], [], []
        self.scaled, self.readings = [], []
        self.failures = []
        workload.begin_pass()

    def read_gauge(self):
        self.readings.append(self.gauge.reading())
        return self.readings[-1]

    def execute(self, op):
        w = self.workload
        if self.tracer is not None:
            self.tracer.op_id = len(self.ops)
        self.ops.append(op)
        if self.gauge:
            before = self.read_gauge()
        t0 = clock()
        try:
            output = w.run_op(op)
        except Exception as exc:
            self.fingerprints.append(None)
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.failures.append(f"{op[:2]} raised {exc!r} at "
                                 f"{where.filename}:{where.lineno}")
            return
        self.latencies.append(clock() - t0)
        if self.gauge:
            speed = (before + self.read_gauge()) / (2 * self.gauge.REFERENCE_S)
            self.scaled.append(self.latencies[-1] / speed)
        self.fingerprints.append(w.fingerprint(output))
        try:
            w.check_op(op, output)
        except Exception as exc:
            self.failures.append(f"{op[:2]} check failed: {exc}")

    def finish(self):
        """Pass-level checks: pooled statistics and the cache miss count
        implied by the ops (each run starts with empty caches)."""
        import workloads

        self.failures += self.workload.end_pass()
        implied = self.workload.implied_cold_maps(self.ops)
        misses = workloads.cache_misses()
        if misses != implied:
            self.failures.append(
                f"effective_map cache misses {misses} != {implied} implied by the ops")
        return self


def setup(name, seed):
    """Import zenosim, generate the inputs and run one warm-up op."""
    t0 = clock()
    # fixed before numpy loads; child processes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "zenosim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no zenosim package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import zenosim

    if Path(zenosim.__file__).resolve().parent != (SRC / "zenosim").resolve():
        raise SystemExit(f"bench: imported zenosim from {zenosim.__file__}")
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {name!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name](seed)
    rounds = workload.make_rounds(workload.max_rounds)
    workloads.clear_caches()
    warm = Pass(workload)
    warm.execute(workload.warmup_op())
    workloads.clear_caches()
    if warm.failures:
        raise SystemExit("bench: warm-up op failed: " + warm.failures[0])
    return workload, rounds, clock() - t0


def gauged_setup(name, seed):
    """setup(), with its CPU time both raw and scaled to the reference speed
    by gauge readings taken right after it."""
    workload, rounds, elapsed = setup(name, seed)
    import gauge

    reading = statistics.median(gauge.readings(SETUP_GAUGE_READINGS))
    return workload, rounds, (elapsed, elapsed * gauge.REFERENCE_S / reading)


def probe_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S, check=True)
    doc = json.loads(proc.stdout.strip().split("\n")[-1])
    return doc["cpu_s"], doc["setup_s"]


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def record_lines(args, workload, ops):
    import numpy

    kinds = {}
    for op in ops:
        kinds[op[0]] = kinds.get(op[0], 0) + 1
    nproc = len(os.sched_getaffinity(0))
    return [
        f"record python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={nproc} blas_threads={BLAS_THREADS} seed={args.seed} "
        f"workload={workload.name} trace={args.trace}",
        "record ops " + " ".join(f"{k}={v}" for k, v in sorted(kinds.items())),
        "record timings are unpinned process CPU time (user + system), scaled "
        "to the reference speed by gauge.py; no CPU pinning, cache dropping or "
        "machine setting was used",
    ]


def emit(correct, attempted, failed, metrics, failures):
    for msg in failures[:20]:
        print(f"FAIL {msg}")
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_timed(args):
    workload, rounds, parent_setup = gauged_setup(args.workload, args.seed)
    setups = [parent_setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]

    min_rounds = math.ceil(MIN_OPS / workload.ops_per_round)
    p = Pass(workload, gauged=True)
    t0, cpu0 = time.perf_counter(), clock()
    done = 0
    for ops in rounds:
        for op in ops:
            p.execute(op)
        done += 1
        elapsed = time.perf_counter() - t0
        # whole rounds only, and none that would end past the time limit
        if done >= min_rounds and elapsed * (done + 1) / done > args.seconds:
            break
    wall, cpu = time.perf_counter() - t0, clock() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p.finish()
    post = workload.post_checks(p.ops, p.fingerprints)

    lat_ms = [x * 1e3 for x in p.scaled]
    p90 = quantile(lat_ms, 0.90)
    beyond = sum(x > p90 for x in lat_ms)
    attempted = len(p.ops)
    failed = len(p.failures) + len(post)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "ops_per_s": (1e3 * len(lat_ms) / sum(lat_ms), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    samples = {"setup_s": f"{len(setups)} set-ups", "ops_per_s": f"{len(lat_ms)} ops",
               "op_p50_ms": f"{len(lat_ms)} ops",
               "op_p90_ms": f"{len(lat_ms)} ops, {beyond} beyond p90",
               "peak_rss_mb": "1 process"}
    raw_ms = [x * 1e3 for x in p.latencies]
    gauge_ms = [x * 1e3 for x in p.readings]
    for line in record_lines(args, workload, p.ops):
        print(line)
    print(f"record rounds={done} wall_s={wall:.3f} cpu_s={cpu:.3f} "
          f"wall_ops_per_s={attempted / wall:.4f} "
          f"unscaled_cpu_p50_ms={statistics.median(raw_ms):.4f} "
          f"unscaled_setup_cpu_s={statistics.median(c for c, _ in setups):.4f}")
    print(f"record gauge readings={len(gauge_ms)} median_ms={statistics.median(gauge_ms):.4f} "
          f"min_ms={min(gauge_ms):.4f} max_ms={max(gauge_ms):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (samples={samples[name]})")
    print(f"metric fail_frac = {failed / attempted:.6g} frac (samples={attempted} ops)")
    ok = failed == 0 and beyond >= 10
    if beyond < 10:
        post.append(f"only {beyond} latencies beyond p90")
    emit(ok, attempted, failed, metrics, p.failures + post)


COUNT_METRICS = ("interrogation.qi_run.cycles", "interrogation.effective_map.columns",
                 "circuits.branches", "oracle.leaves")


def run_traced(args):
    workload, rounds, _ = setup(args.workload, args.seed)
    import spans
    import workloads

    ops = [op for r in rounds[:workload.trace_rounds] for op in r]

    def one_pass(tracer):
        workloads.clear_caches()
        p = Pass(workload, tracer, gauged=True)
        for op in ops:
            p.execute(op)
        return p.finish(), sum(p.scaled)

    plain, plain_s = one_pass(None)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, traced_s = one_pass(tracer)
        layers = tracer.layer_metrics()
        span_counts = tracer.span_counts()
        cold = tracer.cold_map_calls()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.reset()
        again, _ = one_pass(tracer)
        layers_again = tracer.layer_metrics()
        span_counts_again = tracer.span_counts()
    finally:
        tracer.remove()

    checks = []
    if not plain.fingerprints == traced.fingerprints == again.fingerprints:
        checks.append("traced outputs differ from untraced outputs")
    missing = [s for s in workload.expected_spans if not span_counts.get(s)]
    if missing:
        checks.append(f"expected spans never recorded: {missing}")
    counts = {k: v for k, v in layers.items() if k.endswith(".calls") or k in COUNT_METRICS}
    if span_counts != span_counts_again or any(
            layers_again[k] != v for k, v in counts.items()):
        checks.append("span counts differ between two traced passes")
    implied = workload.implied_cold_maps(ops)
    if cold != implied:
        checks.append(f"cold effective_map calls {cold} != {implied} implied by the ops")

    metrics = dict(layers)
    metrics["cli.stdout_bytes"] = (workload.stdout_bytes(traced.fingerprints), "B")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "frac")
    for line in record_lines(args, workload, ops):
        print(line)
    print(f"record passes=3 untraced_scaled_s={plain_s:.3f} "
          f"traced_scaled_s={traced_s:.3f} spans={sum(span_counts.values())}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    failures = plain.failures + traced.failures + again.failures + checks
    attempted = 3 * len(ops)
    emit(not failures, attempted, len(failures), metrics, failures)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        _, _, (cpu_s, setup_s) = gauged_setup(args.workload, args.seed)
        print(json.dumps({"cpu_s": cpu_s, "setup_s": setup_s}))
        return 0
    if args.trace:
        run_traced(args)
    else:
        run_timed(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
