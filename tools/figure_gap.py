"""Compare the figure tables of two checkouts of clickstats.

Runs `python -m clickstats figure NAME --out DIR` for each figure on its
default grid, once against OLD/src and once against NEW/src, and prints,
for every table written, "identical" or the largest absolute and relative
gap between the two.  Run from anywhere:

    python3 tools/figure_gap.py OLD NEW              # fig2 .. fig6
    python3 tools/figure_gap.py OLD NEW fig2 fig3    # a subset

Exits with status 1 when any table differs or is missing on one side.
"""

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6")


def render(checkout: Path, name: str, outdir: Path) -> None:
    """Write figure `name` of the checkout's clickstats into outdir."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    subprocess.run([sys.executable, "-m", "clickstats", "figure", name,
                    "--out", str(outdir)], env=env, check=True)


def gap(old: Path, new: Path) -> str:
    """'identical', or the largest absolute and relative gap of two tables."""
    if old.read_bytes() == new.read_bytes():
        return "identical"
    with old.open() as f, new.open() as g:
        a, b = list(csv.reader(f)), list(csv.reader(g))
    if a[0] != b[0] or [len(r) for r in a] != [len(r) for r in b]:
        return "differs in header or shape"
    absolute = relative = 0.0
    for row_a, row_b in zip(a[1:], b[1:]):
        for x, y in zip(map(float, row_a), map(float, row_b)):
            d = abs(x - y)
            absolute = max(absolute, d)
            if d:
                relative = max(relative, d / max(abs(x), abs(y)))
    return f"largest gap {absolute:.3e} absolute, {relative:.3e} relative"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout holding src/clickstats")
    parser.add_argument("new", type=Path, help="checkout holding src/clickstats")
    parser.add_argument("figures", nargs="*", metavar="FIGURE",
                        help="figures to compare (default: fig2 .. fig6)")
    args = parser.parse_args(argv)
    unknown = set(args.figures) - set(FIGURES)
    if unknown:
        parser.error(f"unknown figures {sorted(unknown)}")
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.figures or FIGURES:
            dirs = [Path(tmp) / side / name for side in ("old", "new")]
            for checkout, outdir in zip((args.old, args.new), dirs):
                render(checkout, name, outdir)
            tables = sorted({p.name for d in dirs for p in d.iterdir()})
            for table in tables:
                old, new = (d / table for d in dirs)
                result = (gap(old, new) if old.exists() and new.exists()
                          else "missing on one side")
                same = same and result == "identical"
                print(f"{table}: {result}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
