"""Compare the outputs of every `sweep` benchmark operation in two checkouts.

Builds the `sweep` workload of `perfbench/workloads.py` for seeds 1, 2 and
3 in each checkout (its own `src/` and `perfbench/`, in a subprocess), runs
every operation of one round after the set-up round, and compares their
`workloads._fingerprint`s (click numbers as bytes, minors, smallest
eigenvalue, Q_B, cross minor and verdict), followed by the statistics'
`exact` values and `exact_error`, bit for bit.  `--workload first_use`
compares round 0 of the `first_use` workload instead, whose operations
each meet a new detector: formal kernel tables, quadrature, closed forms,
superpositions and joint banks, all cold.  Prints each operation that
differs and a count per seed.  Run from anywhere:

    python3 tools/sweep_identity.py OLD NEW
    python3 tools/sweep_identity.py OLD NEW --seeds 1 2
    python3 tools/sweep_identity.py OLD NEW --workload first_use

Exits with status 1 when any fingerprint differs.
"""

import argparse
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

SEEDS = (1, 2, 3)

# run inside a checkout: (slot, fingerprint) of every operation of one round
_CHILD = """
import pickle, sys, tempfile
from pathlib import Path
import workloads

def fingerprint(out):
    stats = out[1]
    return workloads._fingerprint(out) + (
        stats.exact, getattr(stats, "exact_error", None))

out = {}
with tempfile.TemporaryDirectory() as tmp:
    for seed in map(int, sys.argv[2:]):
        workload = workloads.WORKLOADS[sys.argv[1]](seed, Path(tmp))
        workload.setup()
        out[seed] = [(op.slot, pickle.dumps(fingerprint(op.run())))
                     for op in workload.round(0)]
sys.stdout.buffer.write(pickle.dumps(out))
"""


def fingerprints(checkout: Path, workload: str, seeds) -> dict:
    """{seed: [(slot, pickled fingerprint), ...]} of the checkout's
    workload."""
    root = checkout.resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", _CHILD, workload,
                           *map(str, seeds)],
                          env=env, cwd=root, check=True, capture_output=True)
    return pickle.loads(done.stdout)


# the slots of a fingerprint: click numbers, then a report's numbers,
# fig2's minors or nothing (fig5), then the exact values and their error
_EXACT = ("exact", "exact_error")
_REPORT = ("probs", "leading_minors", "min_eigenvalue", "qb", "cross_minor",
           "verdict") + _EXACT
_MINORS = ("probs", "leading_minors") + _EXACT
_PROBS = ("probs",) + _EXACT


def differences(old: tuple, new: tuple) -> list:
    """'name: old -> new' for every slot in which two fingerprints differ;
    click numbers are shown as floats."""
    names = next(n for n in (_REPORT, _MINORS, _PROBS) if len(n) == len(old))
    out = []
    for name, x, y in zip(names, old, new):
        if repr(x) != repr(y):
            if name == "probs":
                x, y = (np.frombuffer(v).tolist() for v in (x, y))
            out.append(f"{name}: {x!r} -> {y!r}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout holding src/ and perfbench/")
    parser.add_argument("new", type=Path, help="checkout holding src/ and perfbench/")
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS,
                        help="workload seeds (default: 1 2 3)")
    parser.add_argument("--workload", choices=("sweep", "first_use"),
                        default="sweep", help="workload (default: sweep)")
    args = parser.parse_args(argv)
    old, new = (fingerprints(c, args.workload, args.seeds)
                for c in (args.old, args.new))
    same = True
    for seed in args.seeds:
        a, b = old[seed], new[seed]
        if [s for s, _ in a] != [s for s, _ in b]:
            print(f"seed {seed}: the operations differ")
            same = False
            continue
        differ = 0
        for i, ((slot, x), (_, y)) in enumerate(zip(a, b)):
            if x != y:
                differ += 1
                print(f"seed {seed} operation {i} ({slot}):")
                for line in differences(pickle.loads(x), pickle.loads(y)):
                    print("  " + line)
        same = same and not differ
        print(f"seed {seed}: {len(a)} operations, "
              + (f"{differ} differ" if differ else "identical"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
