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

Grid defaults used by `figure` bracket the interesting features of
each example and are choices of this package, tunable with --grid.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

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
from .witness import (
    leading_principal_minors,
    moment_matrix,
    pi_moments,
    witness_report,
)

__all__ = ["main", "entry"]


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
    steps = int(parts[2])
    if steps < 1:
        raise ValueError("grid needs at least one point")
    return name, np.linspace(start, stop, steps)


def _grid_overrides(args) -> dict:
    out = {}
    for expr in getattr(args, "grid", None) or []:
        name, values = _parse_grid(expr)
        out[name] = values
    return out


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


def _table_text(header: list, rows: list, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit_table(header: list, rows: list, args) -> None:
    _emit(_table_text(header, rows, args.format), args.out)


# --- stats -----------------------------------------------------------------------


def cmd_stats(args) -> int:
    stats = _build_statistics(args)
    if stats.formal:
        print("note: formal statistics of a response with signed kernels; "
              "entries may be negative", file=sys.stderr)
    if hasattr(stats, "N1"):
        header = ["k1", "k2", "probability"]
        rows = [[k1, k2, float(stats.probs[k1, k2])]
                for k1 in range(stats.N1 + 1)
                for k2 in range(stats.N2 + 1)]
    else:
        header = ["k", "probability"]
        rows = [[k, c] for k, c in enumerate(stats.probs)]
    _emit_table(header, rows, args)
    return 0


# --- witness ---------------------------------------------------------------------


def _report_row(value, report) -> list:
    row = [float(value)]
    row.extend(report.leading_minors)
    row.append(report.min_eigenvalue)
    if report.cross_minor is not None:
        row.append(report.cross_minor)
    else:
        row.append(report.qb if report.qb is not None else "")
    row.append(report.verdict)
    return row


def cmd_witness(args) -> int:
    if args.histogram:
        if args.state or args.detector:
            raise DescriptorError(
                "--histogram replaces --state/--detector; give one or the other")
        hist = read_histogram_csv(args.histogram)
        report = bootstrap_witness(hist, args.resamples, RngSeed(args.seed),
                                   threshold_sigmas=args.threshold_sigmas)
        _emit(json.dumps(report.to_dict(), indent=2), args.out)
        return 0
    if not args.state or not args.detector:
        raise DescriptorError(
            "witness needs --state and --detector, or --histogram")
    if args.grid:
        if len(args.grid) != 1:
            raise DescriptorError("witness takes a single --grid")
        name, values = _parse_grid(args.grid[0])
        base = _load_descriptor(args.state)
        dets = [detector_from_descriptor(_load_descriptor(d))
                for d in args.detector]
        rows = []
        joint = None
        for v in values:
            desc = dict(base)
            desc[name] = float(v)
            report = witness_report(_statistics(state_from_descriptor(desc),
                                                dets, args.precision))
            if joint is None:
                joint = report.cross_minor is not None
                d = len(report.leading_minors)
                header = ([name] + [f"minor{k}" for k in range(1, d + 1)]
                          + ["min_eigenvalue"]
                          + (["cross_minor"] if joint else ["qb"])
                          + ["verdict"])
            rows.append(_report_row(v, report))
        _emit_table(header, rows, args)
        return 0
    stats = _build_statistics(args)
    report = witness_report(stats)
    _emit(json.dumps(report.to_dict(), indent=2), args.out)
    return 0


# --- figures ---------------------------------------------------------------------


def _figure_dir(args) -> Path:
    outdir = Path(args.out) if args.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _write_figure_file(outdir: Path, stem: str, header: list, rows: list,
                       fmt: str) -> None:
    ext = "json" if fmt == "json" else "csv"
    (outdir / f"{stem}.{ext}").write_text(
        _table_text(header, rows, fmt), encoding="utf-8")


def _figure_fig2(args) -> int:
    grids = _grid_overrides(args)
    nbars = grids.pop("nbar", np.linspace(0.0, 3.0, 301))
    _reject_unknown_grids("fig2", grids)
    det = DetectorConfig(N=8, response=Linear(eta=0.9))
    scalings = (1e2, 1e5, 1e8, 1e13)
    header = (["nbar", "minor2", "minor3", "minor4", "minor5"]
              + [f"minor{k}_x1e{int(math.log10(s))}"
                 for k, s in zip(range(2, 6), scalings)])
    rows = []
    for nbar in nbars:
        stats = click_statistics(spats_distribution(float(nbar)), det,
                                 prec=args.precision)
        minors = leading_principal_minors(
            moment_matrix(pi_moments(stats), det.N))
        raw = list(minors[1:5])
        rows.append([float(nbar)] + raw + [m * s for m, s in zip(raw, scalings)])
    _write_figure_file(_figure_dir(args), "fig2", header, rows, args.format)
    return 0


def _figure_fig3(args) -> int:
    grids = _grid_overrides(args)
    xi2s = grids.pop("xi2", np.linspace(0.0, 1.0, 201)[1:-1])
    _reject_unknown_grids("fig3", grids)
    det = DetectorConfig(N=4, response=Linear(eta=0.8))
    header = ["xi2", "cross_minor", "cross_minor_x1e3"]
    rows = []
    for xi2 in xi2s:
        stats = joint_click_statistics(tmsv_joint(math.sqrt(float(xi2))),
                                       det, det, prec=args.precision)
        report = witness_report(stats)
        rows.append([float(xi2), report.cross_minor,
                     report.cross_minor * 1e3])
    _write_figure_file(_figure_dir(args), "fig3", header, rows, args.format)
    return 0


def _figure_fig4(args) -> int:
    grids = _grid_overrides(args)
    ts = grids.pop("t", np.linspace(0.0, 3.0, 61))
    dts = grids.pop("dt", np.linspace(0.0, 3.0, 61))
    _reject_unknown_grids("fig4", grids)
    model = DecayModel(gamma=1.0, prefactor=1.0, N=2)
    names = (["gamma_t", "gamma_dt", "b"] if args.dimensionless
             else ["t", "dt", "b"])
    rows = [[float(t), float(dt), b_function(model, float(t), float(dt))]
            for t in ts for dt in dts]
    _write_figure_file(_figure_dir(args), "fig4", names, rows, args.format)
    return 0


_FIG5_RESPONSES = (
    ("linear", Linear(eta=1.0)),
    ("affine", Affine(eta=1.0, nu=2.0)),
    ("poly", PolynomialSeries(coefficients=(0.0, 1.0, 0.25))),
    ("nabs2", NPhotonAbsorption(n0=2)),
)


def _figure_fig5(args) -> int:
    grids = _grid_overrides(args)
    _reject_unknown_grids("fig5", grids)
    outdir = _figure_dir(args)
    state = state_from_descriptor({"kind": "coherent", "mean_photons": 4.0})
    for name, resp in _FIG5_RESPONSES:
        det = DetectorConfig(N=16, response=resp)
        stats = click_statistics(state, det, prec=args.precision)
        rows = [[k, c] for k, c in enumerate(stats.probs)]
        _write_figure_file(outdir, f"fig5_{name}", ["k", "probability"],
                           rows, args.format)
    return 0


_FIG6_RESPONSES = (
    ("linear", Linear(eta=1.0), 1e4),
    ("cubic", Power(n0=3), 1e8),
    ("nabs3", NPhotonAbsorption(n0=3), 1e9),
)


def _figure_fig6(args) -> int:
    grids = _grid_overrides(args)
    alpha2s = grids.pop("alpha2", np.linspace(0.0, 4.0, 202)[1:])
    _reject_unknown_grids("fig6", grids)
    N = 8
    header = ["alpha2"]
    for name, _, s in _FIG6_RESPONSES:
        header.append(f"minor2_{name}")
    for name, _, s in _FIG6_RESPONSES:
        header.append(f"minor2_{name}_x1e{int(math.log10(s))}")
    rows = []
    for alpha2 in alpha2s:
        state = odd_coherent(math.sqrt(float(alpha2)))
        raw = []
        for _, resp, _ in _FIG6_RESPONSES:
            det = DetectorConfig(N=N, response=resp)
            stats = click_statistics(state, det, prec=args.precision)
            minors = leading_principal_minors(
                moment_matrix(pi_moments(stats), N))
            raw.append(minors[1])
        rows.append([float(alpha2)] + raw
                    + [m * s for m, (_, _, s) in zip(raw, _FIG6_RESPONSES)])
    _write_figure_file(_figure_dir(args), "fig6", header, rows, args.format)
    return 0


def _reject_unknown_grids(fig: str, leftovers: dict) -> None:
    if leftovers:
        raise ValueError(
            f"{fig} does not take grid parameter(s) {sorted(leftovers)}")


_FIGURES = {
    "fig2": _figure_fig2,
    "fig3": _figure_fig3,
    "fig4": _figure_fig4,
    "fig5": _figure_fig5,
    "fig6": _figure_fig6,
}


def cmd_figure(args) -> int:
    return _FIGURES[args.name](args)


# --- sample ----------------------------------------------------------------------


def cmd_sample(args) -> int:
    stats = _build_statistics(args)
    hist = sample_clicks(stats, args.samples, RngSeed(args.seed))
    if args.out:
        write_histogram_csv(hist, args.out)
    else:
        if hist.is_joint:
            header = ["k1", "k2", "count"]
            rows = [[k1, k2, int(hist.counts[k1, k2])]
                    for k1 in range(hist.N1 + 1)
                    for k2 in range(hist.N2 + 1)]
        else:
            header = ["k", "count"]
            rows = [[k, int(c)] for k, c in enumerate(hist.counts)]
        sys.stdout.write(_table_text(header, rows, "csv"))
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


def entry() -> None:
    sys.exit(main())
