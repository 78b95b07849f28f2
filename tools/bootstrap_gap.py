"""Compare the outputs of every `monte_carlo` benchmark operation in two
checkouts.

Builds the `monte_carlo` workload of `perfbench/workloads.py` for seeds 1, 2
and 3 in each checkout (its own `src/` and `perfbench/`, in a subprocess),
runs every operation of one round after the set-up round, and compares
them: the drawn histograms, the bytes of the CSV file each operation leaves
in the work directory, and the histograms read back from it must be
identical, and so must the verdicts.  Prints, per seed, the largest
relative change of the point estimates (leading minors, smallest
eigenvalue, Q_B, cross minor) and of the bootstrap uncertainties.  The 1x1 minor is the zeroth moment, 1 in
every resample, so its uncertainty is roundoff on either side (or exactly
0): it is not compared, only required to stay below ROUNDOFF.  Run from
anywhere:

    python3 tools/bootstrap_gap.py OLD NEW
    python3 tools/bootstrap_gap.py OLD NEW --seeds 1 2

Exits with status 1 when a histogram, a CSV file or a verdict differs, when
a number is present on one side only, or when a relative change exceeds
1e-9.
"""

import argparse
import os
import pickle
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 2, 3)
LIMIT = 1e-9
ROUNDOFF = 1e-15

# run inside a checkout: (slot, outputs) of every operation of one round
_CHILD = """
import pickle, sys, tempfile
from pathlib import Path
import workloads

out = {}
with tempfile.TemporaryDirectory() as tmp:
    for seed in map(int, sys.argv[1:]):
        mc = workloads.MonteCarlo(seed, Path(tmp))
        mc.setup()
        ops = []
        for op in mc.round(0):
            hist, back, report = op.run()
            ops.append((op.slot, hist.counts.tobytes(), mc.csv.read_bytes(),
                        back.counts.tobytes(), report.to_dict()))
        out[seed] = ops
sys.stdout.buffer.write(pickle.dumps(out))
"""

_POINT = ("leading_minors", "min_eigenvalue", "qb", "cross_minor")


def outputs(checkout: Path, seeds) -> dict:
    """{seed: [(slot, counts, CSV bytes, counts read back, report dict),
    ...]}."""
    root = checkout.resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", _CHILD, *map(str, seeds)],
                          env=env, cwd=root, check=True, capture_output=True)
    return pickle.loads(done.stdout)


def _numbers(value) -> list:
    """A report entry as a list of numbers (None stays None)."""
    return list(value) if isinstance(value, (list, tuple)) else [value]


def gap(old, new) -> float:
    """Largest relative change between two report entries; infinite when
    one side lacks a number the other has."""
    a, b = _numbers(old), _numbers(new)
    if len(a) != len(b) or [x is None for x in a] != [y is None for y in b]:
        return float("inf")
    worst = 0.0
    for x, y in zip(a, b):
        if x is not None and x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout holding src/ and perfbench/")
    parser.add_argument("new", type=Path, help="checkout holding src/ and perfbench/")
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS,
                        help="workload seeds (default: 1 2 3)")
    args = parser.parse_args(argv)
    old, new = (outputs(c, args.seeds) for c in (args.old, args.new))
    ok = True
    for seed in args.seeds:
        a, b = old[seed], new[seed]
        if [op[0] for op in a] != [op[0] for op in b]:
            print(f"seed {seed}: the operations differ")
            ok = False
            continue
        point = spread = 0.0
        for i, ((slot, h, csv, back, ra),
                (_, h2, csv2, back2, rb)) in enumerate(zip(a, b)):
            if (h, back) != (h2, back2):
                print(f"seed {seed} operation {i} ({slot}): histograms differ")
                ok = False
            if csv != csv2:
                print(f"seed {seed} operation {i} ({slot}): CSV files differ")
                ok = False
            if ra["verdict"] != rb["verdict"]:
                print(f"seed {seed} operation {i} ({slot}): verdict "
                      f"{ra['verdict']!r} -> {rb['verdict']!r}")
                ok = False
            point = max([point] + [gap(ra[k], rb[k]) for k in _POINT])
            ua, ub = (dict(r["uncertainties"]) for r in (ra, rb))
            first = [u["leading_minors"].pop(0) for u in (ua, ub)]
            if max(first) > ROUNDOFF:
                print(f"seed {seed} operation {i} ({slot}): 1x1 minor "
                      f"uncertainty {first[0]!r} -> {first[1]!r}")
                ok = False
            keys = sorted(set(ua) | set(ub))
            spread = max([spread] + [gap(ua.get(k), ub.get(k)) for k in keys])
        ok = ok and point <= LIMIT and spread <= LIMIT
        print(f"seed {seed}: {len(a)} operations, largest relative change "
              f"{point:.3g} in point estimates, {spread:.3g} in uncertainties")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
