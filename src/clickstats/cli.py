"""Command line front end for click statistics and witnesses.

Subcommands: `stats` writes exact click distributions, `witness` writes
nonclassicality reports (exact or bootstrap from a histogram file),
`figure` regenerates the bundled example tables, and `sample` draws
Monte Carlo click data.

State and detector descriptors are JSON, given inline (any argument
starting with "{") or as a path to a JSON file.  Exit codes: 0 on
success (a "nonclassical" verdict is data, not an error), 2 for
configuration or parse problems, 3 when a numerical invariant is
violated, with the invariant named on standard error.

Every grid scan, `witness --grid` and the witness figures fig2, fig3 and
fig6, is one `_Sweep`: a state at each grid value, measured on one or
more bank sets, with columns read off each witness report.  Click tables
(`stats`, `sample`, fig5) share `sampler._table_rows` and `_table_text`.
Grid defaults used by `figure` bracket the interesting features of
each example and are choices of this package, tunable with --grid; a
grid holds at most _MAX_GRID_STEPS points.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .detector import (
    Affine,
    DetectorConfig,
    Linear,
    NPhotonAbsorption,
    PolynomialSeries,
    Power,
    click_statistics,
    detector_from_descriptor,
    joint_click_statistics,
)
from .dynamics import DecayModel, b_function
from .errors import (
    ClickstatsError,
    DescriptorError,
    NumericalInvariantViolation,
)
from .sampler import (
    RngSeed,
    _table_rows,
    _table_text,
    bootstrap_witness,
    read_histogram_csv,
    sample_clicks,
    write_histogram_csv,
)
from .states import (
    JointPhotonDistribution,
    odd_coherent,
    spats_distribution,
    state_from_descriptor,
    tmsv_joint,
)
from .witness import witness_report

__all__ = ["main", "entry"]

_MAX_GRID_STEPS = 100_000


# --- input plumbing --------------------------------------------------------------


def _load_descriptor(text: str) -> dict:
    """Inline JSON (starts with '{') or the contents of a JSON file."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return json.loads(stripped)
    return json.loads(Path(text).read_text(encoding="utf-8"))


def _parse_grid(expr: str) -> tuple:
    """Parse 'name=start:stop:steps' into (name, values)."""
    name, eq, rest = expr.partition("=")
    name = name.strip()
    parts = rest.split(":")
    if not eq or not name or len(parts) != 3:
        raise ValueError(
            f"grid {expr!r} is not of the form name=start:stop:steps")
    start, stop = float(parts[0]), float(parts[1])
    # linspace's points are all finite when the ends and their gap are
    if not math.isfinite(stop - start):
        raise ValueError(f"grid {expr!r} has points that are not finite")
    steps = int(parts[2])
    if not 1 <= steps <= _MAX_GRID_STEPS:
        raise ValueError(
            f"grid needs 1 to {_MAX_GRID_STEPS} points, got {steps}")
    return name, np.linspace(start, stop, steps)


def _build_statistics(args):
    """State + detector descriptors to exact statistics."""
    state = state_from_descriptor(_load_descriptor(args.state))
    dets = [detector_from_descriptor(_load_descriptor(d))
            for d in args.detector or []]
    return _statistics(state, dets, args.precision)


def _statistics(state, dets, prec):
    """Exact statistics of a state on its one bank, or two for a joint one."""
    if isinstance(state, JointPhotonDistribution):
        if len(dets) != 2:
            raise DescriptorError(
                f"a joint state needs exactly 2 detectors, got {len(dets)}")
        return joint_click_statistics(state, dets[0], dets[1], prec=prec)
    if len(dets) != 1:
        raise DescriptorError(
            f"a single-mode state needs exactly 1 detector, got {len(dets)}")
    return click_statistics(state, dets[0], prec=prec)


# --- output plumbing -------------------------------------------------------------


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit_table(header: list, rows: list, args) -> None:
    _emit(_table_text(header, rows, args.format), args.out)


# --- stats -----------------------------------------------------------------------


def cmd_stats(args) -> int:
    stats = _build_statistics(args)
    if stats.formal:
        print("note: formal statistics of a response with signed kernels; "
              "entries may be negative", file=sys.stderr)
    _emit_table(*_table_rows(stats.probs, "probability"), args)
    return 0


# --- sweeps ----------------------------------------------------------------------


class _Sweep(NamedTuple):
    """A witness scan: at each value of `param` (default `grid`) the state
    `state_at(value)` is measured on each (label, detectors) bank set of
    `banks`, and `columns(report)` gives (name, value) pairs, named with
    the bank set's label appended.  The first len(scalings) values repeat
    as `<name>_x1e<p>` columns, times their scaling 10^p, for display."""

    param: str
    grid: np.ndarray
    state_at: Callable
    banks: tuple
    columns: Callable
    scalings: tuple = ()


def _report_columns(report) -> list:
    """Every criterion of a report: minors, eigenvalue, Q_B or cross minor."""
    cols = [(f"minor{k}", m) for k, m in enumerate(report.leading_minors, 1)]
    cols.append(("min_eigenvalue", report.min_eigenvalue))
    if report.cross_minor is not None:
        cols.append(("cross_minor", report.cross_minor))
    else:
        cols.append(("qb", report.qb if report.qb is not None else ""))
    return cols + [("verdict", report.verdict)]


def _sweep(sweep: _Sweep, values, prec) -> tuple:
    """(header, rows) of a sweep over the grid `values`, not empty."""
    rows = []
    for value in map(float, values):
        state = sweep.state_at(value)
        cols = [(name + label, x) for label, dets in sweep.banks
                for name, x in sweep.columns(
                    witness_report(_statistics(state, dets, prec)))]
        raw = [x for _, x in cols]
        rows.append([value] + raw
                    + [x * s for x, s in zip(raw, sweep.scalings)])
    names = [name for name, _ in cols]
    return [sweep.param] + names + [
        f"{name}_x1e{int(math.log10(s))}"
        for name, s in zip(names, sweep.scalings)], rows


_SWEEPS = {
    "fig2": _Sweep(
        "nbar", np.linspace(0.0, 3.0, 301), spats_distribution,
        (("", [DetectorConfig(N=8, response=Linear(eta=0.9))]),),
        lambda r: [(f"minor{k}", r.leading_minors[k - 1])
                   for k in range(2, 6)],
        (1e2, 1e5, 1e8, 1e13)),
    "fig3": _Sweep(
        "xi2", np.linspace(0.0, 1.0, 201)[1:-1],
        lambda xi2: tmsv_joint(math.sqrt(xi2)),
        (("", [DetectorConfig(N=4, response=Linear(eta=0.8))] * 2),),
        lambda r: [("cross_minor", r.cross_minor)], (1e3,)),
    "fig6": _Sweep(
        "alpha2", np.linspace(0.0, 4.0, 202)[1:],
        lambda alpha2: odd_coherent(math.sqrt(alpha2)),
        tuple((f"_{name}", [DetectorConfig(N=8, response=resp)])
              for name, resp in (("linear", Linear(eta=1.0)),
                                 ("cubic", Power(n0=3)),
                                 ("nabs3", NPhotonAbsorption(n0=3)))),
        lambda r: [("minor2", r.leading_minors[1])], (1e4, 1e8, 1e9)),
}


# --- witness ---------------------------------------------------------------------


def cmd_witness(args) -> int:
    if args.histogram:
        if args.state or args.detector:
            raise DescriptorError(
                "--histogram replaces --state/--detector; give one or the other")
        report = bootstrap_witness(read_histogram_csv(args.histogram),
                                   args.resamples, RngSeed(args.seed),
                                   threshold_sigmas=args.threshold_sigmas)
    elif not args.state or not args.detector:
        raise DescriptorError(
            "witness needs --state and --detector, or --histogram")
    elif args.grid:
        if len(args.grid) != 1:
            raise DescriptorError("witness takes a single --grid")
        name, values = _parse_grid(args.grid[0])
        base = _load_descriptor(args.state)
        if name not in (base.keys() - {"kind"} if isinstance(base, dict)
                        else ()):
            raise DescriptorError(f"--grid {name!r} is not a state parameter")
        dets = [detector_from_descriptor(_load_descriptor(d))
                for d in args.detector]
        sweep = _Sweep(name, values,
                       lambda v: state_from_descriptor({**base, name: v}),
                       (("", dets),), _report_columns)
        _emit_table(*_sweep(sweep, values, args.precision), args)
        return 0
    else:
        report = witness_report(_build_statistics(args))
    _emit(json.dumps(report.to_dict(), indent=2), args.out)
    return 0


# --- figures ---------------------------------------------------------------------


def _figure_grids(args, **defaults) -> list:
    """Values of each grid parameter of a figure: --grid, else the default."""
    grids = dict(_parse_grid(expr) for expr in args.grid or [])
    unknown = sorted(set(grids) - set(defaults))
    if unknown:
        raise ValueError(
            f"{args.name} does not take grid parameter(s) {unknown}")
    return [grids.get(name, grid) for name, grid in defaults.items()]


def _write_figure(args, stem: str, header: list, rows: list) -> None:
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"{stem}.{args.format}").write_text(
        _table_text(header, rows, args.format), encoding="utf-8")


def _figure_sweep(args) -> int:
    sweep = _SWEEPS[args.name]
    (values,) = _figure_grids(args, **{sweep.param: sweep.grid})
    _write_figure(args, args.name, *_sweep(sweep, values, args.precision))
    return 0


def _figure_fig4(args) -> int:
    ts, dts = _figure_grids(args, t=np.linspace(0.0, 3.0, 61),
                            dt=np.linspace(0.0, 3.0, 61))
    model = DecayModel(gamma=1.0, prefactor=1.0, N=2)
    names = (["gamma_t", "gamma_dt", "b"] if args.dimensionless
             else ["t", "dt", "b"])
    rows = [[float(t), float(dt), b_function(model, float(t), float(dt))]
            for t in ts for dt in dts]
    _write_figure(args, "fig4", names, rows)
    return 0


_FIG5_RESPONSES = (
    ("linear", Linear(eta=1.0)),
    ("affine", Affine(eta=1.0, nu=2.0)),
    ("poly", PolynomialSeries(coefficients=(0.0, 1.0, 0.25))),
    ("nabs2", NPhotonAbsorption(n0=2)),
)


def _figure_fig5(args) -> int:
    _figure_grids(args)
    state = state_from_descriptor({"kind": "coherent", "mean_photons": 4.0})
    for name, resp in _FIG5_RESPONSES:
        stats = click_statistics(state, DetectorConfig(N=16, response=resp),
                                 prec=args.precision)
        _write_figure(args, f"fig5_{name}",
                      *_table_rows(stats.probs, "probability"))
    return 0


_FIGURES = {"fig4": _figure_fig4, "fig5": _figure_fig5,
            **dict.fromkeys(_SWEEPS, _figure_sweep)}


def cmd_figure(args) -> int:
    return _FIGURES[args.name](args)


# --- sample ----------------------------------------------------------------------


def cmd_sample(args) -> int:
    stats = _build_statistics(args)
    hist = sample_clicks(stats, args.samples, RngSeed(args.seed))
    if args.out:
        write_histogram_csv(hist, args.out)
    else:
        sys.stdout.write(_table_text(*_table_rows(hist.counts, "count"), "csv"))
    if args.witness:
        resample_seed = RngSeed((args.seed + 1) % 2**64)
        report = bootstrap_witness(hist, args.resamples, resample_seed,
                                   threshold_sigmas=args.threshold_sigmas)
        _emit(json.dumps(report.to_dict(), indent=2), args.report)
    return 0


# --- parser ----------------------------------------------------------------------


def _add_io_flags(sub, out_help: str) -> None:
    sub.add_argument("--out", help=out_help)
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="table format (default csv)")


def _add_model_flags(sub) -> None:
    sub.add_argument("--state", help="state descriptor: inline JSON or file")
    sub.add_argument("--detector", action="append",
                     help="detector descriptor: inline JSON or file; "
                          "repeat for a two-bank measurement")
    sub.add_argument("--precision", type=int, default=None, metavar="BITS",
                     help="floor in bits for the extended-precision series")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clickstats",
        description="Click-counting statistics, nonclassicality witnesses, "
                    "and Monte Carlo sampling for on-off detector banks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="exact click distribution")
    _add_model_flags(p_stats)
    _add_io_flags(p_stats, "output file (default stdout)")
    p_stats.set_defaults(func=cmd_stats)

    p_wit = sub.add_parser("witness", help="nonclassicality report")
    _add_model_flags(p_wit)
    p_wit.add_argument("--histogram", help="histogram CSV for the "
                                           "bootstrap path")
    p_wit.add_argument("--grid", action="append", metavar="NAME=A:B:STEPS",
                       help="sweep one state parameter; writes a table")
    p_wit.add_argument("--seed", type=int, default=0)
    p_wit.add_argument("--resamples", type=int, default=1000)
    p_wit.add_argument("--threshold-sigmas", type=float, default=3.0)
    _add_io_flags(p_wit, "output file (default stdout)")
    p_wit.set_defaults(func=cmd_witness)

    p_fig = sub.add_parser("figure", help="regenerate example data tables")
    p_fig.add_argument("name", choices=sorted(_FIGURES))
    p_fig.add_argument("--grid", action="append", metavar="NAME=A:B:STEPS",
                       help="override a default grid")
    p_fig.add_argument("--dimensionless", action="store_true",
                       help="label decay axes as rate-time products")
    p_fig.add_argument("--precision", type=int, default=None, metavar="BITS",
                       help="floor in bits for the extended-precision series")
    _add_io_flags(p_fig, "output directory (default current)")
    p_fig.set_defaults(func=cmd_figure)

    p_samp = sub.add_parser("sample", help="Monte Carlo click data")
    _add_model_flags(p_samp)
    p_samp.add_argument("--samples", type=int, default=100000)
    p_samp.add_argument("--seed", type=int, default=0)
    p_samp.add_argument("--witness", action="store_true",
                        help="chain a bootstrap witness on the drawn data")
    p_samp.add_argument("--report", help="witness report file (default stdout)")
    p_samp.add_argument("--resamples", type=int, default=1000)
    p_samp.add_argument("--threshold-sigmas", type=float, default=3.0)
    _add_io_flags(p_samp, "histogram CSV file (default stdout)")
    p_samp.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        prec = getattr(args, "precision", None)
        if prec is not None and prec < 53:
            raise ValueError(
                f"--precision must be at least 53 bits, got {prec}")
        return args.func(args)
    except NumericalInvariantViolation as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ClickstatsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
