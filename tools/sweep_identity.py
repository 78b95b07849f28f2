"""Compare a benchmark workload's outputs, or the figures, of two checkouts.

Builds the workload of `perfbench/workloads.py` for seeds 1, 2 and 3 in
each checkout (its own `src/` and `perfbench/`, one BLAS thread), runs
every operation of one round after the set-up round, and compares them.

- `sweep` (the default): every operation's `workloads._fingerprint`
  (click numbers as bytes, minors, smallest eigenvalue, Q_B, cross minor
  and verdict), followed by the statistics' `exact` values and
  `exact_error`, bit for bit.
- `first_use`: the same, on round 0 of the `first_use` workload, whose
  operations each meet a new detector: formal kernel tables, quadrature,
  closed forms, superpositions and joint banks, all cold.
- `monte_carlo`: the drawn histograms, the bytes of the CSV file each
  operation leaves in the work directory, the histograms read back from
  it and the verdicts must be identical; the largest relative change of
  the point estimates (leading minors, smallest eigenvalue, Q_B, cross
  minor) and of the bootstrap uncertainties must stay within LIMIT.  The
  1x1 minor is the zeroth moment, 1 in every resample, so its uncertainty
  is roundoff on either side (or exactly 0): it is not compared, only
  required to stay below ROUNDOFF.
- `figures` (no seeds): every table of fig2 to fig6 on its default grid,
  as bytes; one that differs is shown with its largest gaps.

Prints each operation or table that differs, a line per seed (or for the
figures), and the `src/` line count of both checkouts, as `wc -l` counts
them.  Run from anywhere:

    python3 tools/sweep_identity.py OLD NEW
    python3 tools/sweep_identity.py OLD NEW --seeds 1 2
    python3 tools/sweep_identity.py OLD NEW --workload first_use
    python3 tools/sweep_identity.py OLD NEW --workload monte_carlo
    python3 tools/sweep_identity.py OLD NEW --workload figures

Exits with status 1 when any fingerprint differs (for `monte_carlo`: a
histogram, a CSV file or a verdict, a number present on one side only,
or a relative change above LIMIT; for `figures`: any table).
"""

import argparse
import csv
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

SEEDS = (1, 2, 3)
LIMIT = 1e-9
ROUNDOFF = 1e-15

# as perfbench/run.py sets them: the benchmark is single-threaded
_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def checkout_env(root: Path) -> dict:
    """The environment of a process run in the checkout `root`: its `src/`
    and `perfbench/` first on PYTHONPATH, and one BLAS thread."""
    return dict(os.environ, **dict.fromkeys(_THREADS, "1"),
                PYTHONPATH=f"{root / 'src'}{os.pathsep}{root / 'perfbench'}")


# run inside a checkout: {table name: bytes} of fig2 .. fig6 for `figures`,
# else {seed: [(slot, pickled outputs), ...]} of one round's operations
_CHILD = """
import pickle, sys, tempfile
from pathlib import Path
import workloads
from clickstats.cli import main

def fingerprint(workload, out):
    if workload.name == "monte_carlo":
        hist, back, report = out
        return (hist.counts.tobytes(), workload.csv.read_bytes(),
                back.counts.tobytes(), report.to_dict())
    stats = out[1]
    return workloads._fingerprint(out) + (
        stats.exact, getattr(stats, "exact_error", None))

out = {}
with tempfile.TemporaryDirectory() as tmp:
    if sys.argv[1] == "figures":
        for name in ("fig2", "fig3", "fig4", "fig5", "fig6"):
            if main(["figure", name, "--out", tmp]):
                sys.exit(f"figure {name} failed")
        out = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
    for seed in map(int, sys.argv[2:]):
        workload = workloads.WORKLOADS[sys.argv[1]](seed, Path(tmp))
        workload.setup()
        out[seed] = [(op.slot, pickle.dumps(fingerprint(workload, op.run())))
                     for op in workload.round(0)]
sys.stdout.buffer.write(pickle.dumps(out))
"""


def fingerprints(checkout: Path, workload: str, seeds) -> dict:
    """{seed: [(slot, pickled outputs), ...]} of the checkout's workload,
    or {table name: bytes} of its figures."""
    root = checkout.resolve()
    done = subprocess.run([sys.executable, "-c", _CHILD, workload,
                           *map(str, seeds)], env=checkout_env(root),
                          cwd=root, check=True, stdout=subprocess.PIPE)
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


def compare_fingerprints(ops: list) -> tuple:
    """(problems, summary) of [(old, new), ...] pickled fingerprints, which
    must be identical."""
    problems = [(i, differences(pickle.loads(x), pickle.loads(y)))
                for i, (x, y) in enumerate(ops) if x != y]
    return problems, f"{len(problems)} differ" if problems else "identical"


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


_POINT = ("leading_minors", "min_eigenvalue", "qb", "cross_minor")


def compare_monte_carlo(ops: list) -> tuple:
    """(problems, summary) of [(old, new), ...] pickled monte_carlo
    outputs: identical histograms, CSV bytes and verdicts, and point
    estimates and uncertainties within LIMIT."""
    problems, point, spread = [], 0.0, 0.0
    for i, pair in enumerate(ops):
        (h, text, back, ra), (h2, text2, back2, rb) = map(pickle.loads, pair)
        lines = []
        if (h, back) != (h2, back2):
            lines.append("histograms differ")
        if text != text2:
            lines.append("CSV files differ")
        if ra["verdict"] != rb["verdict"]:
            lines.append(f"verdict {ra['verdict']!r} -> {rb['verdict']!r}")
        point = max([point] + [gap(ra[k], rb[k]) for k in _POINT])
        ua, ub = (dict(r["uncertainties"]) for r in (ra, rb))
        first = [u["leading_minors"].pop(0) for u in (ua, ub)]
        if max(first) > ROUNDOFF:
            lines.append(f"1x1 minor uncertainty {first[0]!r} -> {first[1]!r}")
        keys = sorted(set(ua) | set(ub))
        spread = max([spread] + [gap(ua.get(k), ub.get(k)) for k in keys])
        if lines:
            problems.append((i, lines))
    if not (point <= LIMIT and spread <= LIMIT):
        problems.append((None, [f"relative change above {LIMIT:g}"]))
    return problems, (f"largest relative change {point:.3g} in point "
                      f"estimates, {spread:.3g} in uncertainties")


def table_gap(old: bytes, new: bytes) -> str:
    """The largest absolute and relative gap of two CSV tables' numbers."""
    a, b = (list(csv.reader(t.decode().splitlines())) for t in (old, new))
    if a[0] != b[0] or [len(r) for r in a] != [len(r) for r in b]:
        return "differs in header or shape"
    x, y = ([float(v) for row in t[1:] for v in row] for t in (a, b))
    absolute = max((abs(u - v) for u, v in zip(x, y)), default=0.0)
    return f"largest gap {absolute:.3e} absolute, {gap(x, y):.3e} relative"


def compare_tables(old: dict, new: dict) -> tuple:
    """(problems, summary) of two sides' {table name: bytes}, which must be
    identical: a line for each table that differs or is on one side only."""
    names = sorted(old.keys() | new.keys())
    problems = [f"{n}: " + (table_gap(old[n], new[n]) if n in old and n in new
                            else "missing on one side")
                for n in names if old.get(n) != new.get(n)]
    return problems, f"{len(names)} tables, " + (
        f"{len(problems)} differ" if problems else "identical")


def src_lines(checkout: Path) -> int:
    """Lines of the Python files under the checkout's `src/`."""
    return sum(p.read_bytes().count(b"\n")
               for p in (checkout / "src").rglob("*.py"))


COMPARE = {"sweep": compare_fingerprints, "first_use": compare_fingerprints,
           "monte_carlo": compare_monte_carlo}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout holding src/ and perfbench/")
    parser.add_argument("new", type=Path, help="checkout holding src/ and perfbench/")
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS,
                        help="workload seeds (default: 1 2 3)")
    parser.add_argument("--workload", choices=(*COMPARE, "figures"),
                        default="sweep", help="workload (default: sweep)")
    args = parser.parse_args(argv)
    seeds = () if args.workload == "figures" else args.seeds
    old, new = (fingerprints(c, args.workload, seeds)
                for c in (args.old, args.new))
    lines = f"src/: {src_lines(args.old)} -> {src_lines(args.new)} lines"
    if args.workload == "figures":
        problems, summary = compare_tables(old, new)
        print(*problems, f"figures: {summary}", lines, sep="\n")
        return 1 if problems else 0
    same = True
    for seed in args.seeds:
        a, b = old[seed], new[seed]
        if [s for s, _ in a] != [s for s, _ in b]:
            print(f"seed {seed}: the operations differ")
            same = False
            continue
        problems, summary = COMPARE[args.workload](
            [(x, y) for (_, x), (_, y) in zip(a, b)])
        for i, lines in problems:
            print(f"seed {seed}" + ("" if i is None else
                                    f" operation {i} ({a[i][0]})") + ":")
            for line in lines:
                print("  " + line)
        same = same and not problems
        print(f"seed {seed}: {len(a)} operations, {summary}")
    print(lines)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
