"""Time every operation slot of a benchmark workload in two checkouts.

Starts one process per checkout (its own `src/` and `perfbench/`), each of
which builds the workload of `perfbench/workloads.py` for one seed and runs
its set-up, so that both are warm.  Every round then runs in both
processes, alternating which goes first, and each operation's `run` is
timed as the benchmark times it, with one BLAS thread.  Prints, for each
operation slot, the median over the rounds of its time per round (the sum
over its operations) in each checkout, and their ratio NEW/OLD, so that a
change of an end-to-end metric can be traced to the slots it comes from.
Run from anywhere:

    python3 tools/slot_times.py OLD NEW --workload sweep --rounds 200
    python3 tools/slot_times.py OLD NEW --workload monte_carlo --seed 4
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from sweep_identity import checkout_env

# run inside a checkout: set up, print "ready", then time round r for each
# r read from standard input and print {slot: seconds} as one JSON line
_CHILD = """
import json, sys, tempfile, time
from collections import defaultdict
from pathlib import Path
import workloads

with tempfile.TemporaryDirectory() as tmp:
    wl = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(tmp))
    wl.setup()
    print("ready", flush=True)
    for line in sys.stdin:
        times = defaultdict(float)
        for op in wl.round(int(line)):
            t0 = time.perf_counter()
            op.run()
            times[op.slot] += time.perf_counter() - t0
        print(json.dumps(times), flush=True)
"""


def start(checkout: Path, workload: str, seed: int) -> subprocess.Popen:
    """The checkout's workload process, set up and waiting for rounds."""
    root = checkout.resolve()
    proc = subprocess.Popen([sys.executable, "-c", _CHILD, workload, str(seed)],
                            env=checkout_env(root), cwd=root,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    if proc.stdout.readline().strip() != "ready":
        proc.kill()
        raise SystemExit(f"error: set-up failed in {root}")
    return proc


def round_times(proc: subprocess.Popen, r: int) -> dict:
    """{slot: seconds} of round r in one process."""
    proc.stdin.write(f"{r}\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise SystemExit(f"error: a workload process ended in round {r}")
    return json.loads(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout holding src/ and perfbench/")
    parser.add_argument("new", type=Path, help="checkout holding src/ and perfbench/")
    parser.add_argument("--workload", choices=("sweep", "monte_carlo"),
                        default="sweep")
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    procs = []
    try:
        for checkout in (args.old, args.new):
            procs.append(start(checkout, args.workload, args.seed))
        runs = ([], [])
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for side in order:
                runs[side].append(round_times(procs[side], r))
    finally:
        for proc in procs:
            proc.stdin.close()
        for proc in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
    slots = list(runs[0][0])
    rows = [(slot, [[rnd.get(slot, 0.0) for rnd in run] for run in runs])
            for slot in slots]
    rows.append(("round", [[sum(rnd.values()) for rnd in run] for run in runs]))
    width = max(len(slot) for slot, _ in rows)
    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds; "
          "median ms per round")
    print(f"{'slot':{width}}  {'old':>9}  {'new':>9}  new/old")
    for slot, (old, new) in rows:
        a, b = statistics.median(old) * 1e3, statistics.median(new) * 1e3
        print(f"{slot:{width}}  {a:9.3f}  {b:9.3f}  {b / a:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
