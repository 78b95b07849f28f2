"""Benchmark of clickstats: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from ./src and
nothing is installed.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Scratch files (CSV
histograms, command-line outputs, span dumps) go to ./.perfbench.  See
perfbench/README.md for the workloads, the metrics and their bounds.
"""

import os

# one thread for BLAS and OpenMP, set before numpy loads and inherited by the
# set-up processes: the benchmark is a single-threaded closed loop
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

# set-up is timed in this many fresh processes, spread over the run; the
# median is setup_s
SETUP_RUNS = 5
# a traced run has at least this many traced rounds; the counts are taken
# over the first this many, whose inputs the seed fixes
MIN_TRACED_ROUNDS = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep", "first_use", "monte_carlo"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (times set-up)")
    return p.parse_args(argv)


def _load(args):
    """Import the program from ./src and build the workload."""
    if not (SRC / "clickstats" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'clickstats'} not found; run from the "
                         "root of a clickstats checkout")
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)
    import workloads
    return workloads.WORKLOADS[args.workload](args.seed, WORKDIR)


def _time_setup(args):
    """Seconds from spawning a fresh process to its first timed operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if proc.wait() != 0 or line.strip() != "ready":
        raise SystemExit("error: set-up process failed")
    return elapsed


def _percentile(sorted_values, pct):
    """Nearest-rank percentile."""
    idx = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[idx]


class Run:
    """Rounds of one workload: operation times, failures and, when traced,
    span ranges and counts."""

    def __init__(self, wl, tracer=None, time_setup=None):
        self.wl = wl
        self.tracer = tracer
        self.time_setup = time_setup
        self.setups = []             # seconds per timed set-up
        self.untraced = []           # per untraced round: operation seconds
        self.traced = []             # per traced round: (seconds, spans, counts)
        self.peak_rss_mb = None      # after wl.rss_rounds untraced rounds
        self.attempted = 0
        self.failed = 0
        self.errors = []             # operations that raised
        self.problems = []           # outputs that failed a check

    @staticmethod
    def _note(log, msg):
        if len(log) < 20:
            log.append(msg)

    def _round(self, r, traced):
        import clickstats.cli
        import clickstats.detector
        click_statistics = clickstats.detector.click_statistics
        tracer = self.tracer if traced else None
        times = []
        if tracer:
            first_span = len(tracer.spans)
            counts = tracer.counts.copy()
            tracer.install()
        try:
            for op in self.wl.round(r):
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # counted, reported, run goes on
                    self.failed += 1
                    self._note(self.errors,
                               f"{op.slot}: {type(exc).__name__}: {exc}")
                    continue
                times.append(time.perf_counter() - t0)
                if tracer and op.single is not None:
                    state, det = op.single(out)
                    if not op.first_in_run:
                        clickstats.detector.click_statistics(state, det)
                    with tracer.span("detector.click_statistics.repeat"):
                        click_statistics(state, det)
                for msg in op.check(out):
                    self._note(self.problems, f"{op.slot}: {msg}")
            if tracer:
                for argv in self.wl.cli_calls(r):
                    code = clickstats.cli.main(argv)
                    if code != 0:
                        self._note(self.problems, f"cli {argv[0]} exited {code}")
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            self.traced.append((sum(times),
                                (first_span, len(tracer.spans)),
                                tracer.counts - counts))
        else:
            self.untraced.append(times)

    def go(self, seconds):
        """Whole rounds until `seconds` have passed, and until peak memory
        was read after wl.rss_rounds untraced rounds or, traced,
        MIN_TRACED_ROUNDS rounds were traced.  Untraced, the set-up replicas
        run between rounds, evenly over the time, so that a slow spell of the
        machine meets few of them; the time they take does not count."""
        start = time.perf_counter()
        stop = start + seconds
        r = 0
        while True:
            if self.time_setup and len(self.setups) < SETUP_RUNS and (
                    time.perf_counter() - start
                    >= len(self.setups) * seconds / SETUP_RUNS):
                t0 = time.perf_counter()
                self.setups.append(self.time_setup())
                paused = time.perf_counter() - t0
                start += paused
                stop += paused
            if self.tracer:
                enough = len(self.traced) >= MIN_TRACED_ROUNDS
            else:
                if (self.peak_rss_mb is None
                        and len(self.untraced) >= self.wl.rss_rounds):
                    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    self.peak_rss_mb = kb / 1024.0
                enough = self.peak_rss_mb is not None
            if enough and time.perf_counter() >= stop:
                while self.time_setup and len(self.setups) < SETUP_RUNS:
                    self.setups.append(self.time_setup())
                return
            # traced and untraced rounds alternate in blocks of four, so that
            # both see every bank size of first_use's sequence
            self._round(r, traced=self.tracer is not None and r // 4 % 2 == 1)
            r += 1


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run):
    """Throughput, median and tail over every timed operation of the run."""
    lat = sorted(t for rnd in run.untraced for t in rnd)
    return {
        "ops_per_s": _metric(len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": _metric(_percentile(lat, run.wl.tail_pct) * 1e3,
                                   "ms"),
        "setup_s": _metric(statistics.median(run.setups), "s"),
        "peak_rss_mb": _metric(run.peak_rss_mb, "MB"),
    }


# per-layer time metrics: metric name -> span names whose self time it sums
LAYER_TIMES = {
    "states.construct_ms": (
        "states.coherent_distribution", "states.thermal_distribution",
        "states.spats_distribution", "states.fock_distribution",
        "states.odd_coherent", "states.tmsv_joint",
        "states.state_from_descriptor"),
    "detector.click_statistics_ms": ("detector.click_statistics",),
    "detector.click_statistics.repeat_ms": ("detector.click_statistics.repeat",),
    "detector.joint_click_statistics_ms": ("detector.joint_click_statistics",),
    "witness.witness_report.self_ms": ("witness.witness_report",),
    "witness.pi_moments_ms": ("witness.pi_moments",),
    "witness.joint_pi_moments_ms": ("witness.joint_pi_moments",),
    "witness.leading_principal_minors_ms": ("witness.leading_principal_minors",),
    "witness.min_eigenvalue_ms": ("witness.min_eigenvalue",),
    "witness.qb_parameter_ms": ("witness.qb_parameter",),
    "witness.cross_correlation_minor_ms": ("witness.cross_correlation_minor",),
    "sampler.sample_clicks_ms": ("sampler.sample_clicks",),
    "sampler.histogram_csv_ms": ("sampler.write_histogram_csv",
                                 "sampler.read_histogram_csv"),
    "sampler.estimate_statistics_ms": ("sampler.estimate_statistics",),
    "sampler.bootstrap_witness.self_ms": ("sampler.bootstrap_witness",),
    "cli.main.self_ms": ("cli.main",),
}
LAYER_COUNTS = ("detector.fock_levels", "witness.minors", "sampler.events",
                "sampler.resamples")


def per_layer(run):
    """Self time (ms) per traced round, averaged over the traced rounds;
    counts per traced round over the first MIN_TRACED_ROUNDS, whose inputs
    every run with the seed shares; and the tracing overhead: the mean
    operation time of a traced round over that of an untraced round."""
    tracer = run.tracer
    totals = Counter()
    for _, (lo, hi), _ in run.traced:
        selfs = tracer.self_times(lo, hi)
        for name, spans in LAYER_TIMES.items():
            totals[name] += sum(selfs[s] for s in spans) * 1e3
        # the operations' own click_statistics calls, outside cli.main
        totals["detector.click_statistics.first_ms"] += 1e3 * sum(
            tracer.spans[i][2] - tracer.spans[i][1] for i in range(lo, hi)
            if tracer.spans[i][0] == "detector.click_statistics"
            and "cli.main" not in tracer.ancestors(i))
    n = len(run.traced)
    out = {name: _metric(totals[name] / n, "ms")
           for name in list(LAYER_TIMES) + ["detector.click_statistics.first_ms"]}
    first = run.traced[:MIN_TRACED_ROUNDS]
    for name in LAYER_COUNTS:
        out[name] = _metric(sum(c[name] for _, _, c in first) / len(first),
                            "count")
    traced = statistics.fmean(t for t, _, _ in run.traced)
    plain = statistics.fmean(sum(rnd) for rnd in run.untraced)
    out["trace.overhead_ratio"] = _metric(traced / plain, "ratio")
    return out


def main(argv=None):
    args = _parse(argv)
    wl = _load(args)
    wl.setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    run = Run(wl, tracer, None if tracer else lambda: _time_setup(args))
    run.go(args.seconds)
    correct = not run.problems
    for msg in run.errors:
        print(f"operation failed: {msg}", file=sys.stderr)
    for msg in run.problems:
        print(f"check failed: {msg}", file=sys.stderr)
    metrics = per_layer(run) if tracer else end_to_end(run)
    if tracer:
        tracer.dump(WORKDIR / f"trace-{args.workload}-{args.seed}.jsonl")
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
