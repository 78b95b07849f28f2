"""Monte Carlo click sampling, estimation, and bootstrap witnesses.

Simulates finite measurement runs of a diode bank: draws the histogram
of n i.i.d. click outcomes from exact statistics as one multinomial draw
over the outcome list (the tally of n categorical draws has exactly that
distribution, and the draw costs O(N) rather than O(n log N)), converts
histograms back into estimated statistics with multinomial standard
errors, and wraps the witness criteria in a multinomial bootstrap so
verdicts carry uncertainties.

The random number generator is numpy's PCG64 (a permuted congruential
generator) with a 64-bit seed, fixed for the lifetime of this package:
identical seeds and request sequences reproduce histograms bit for bit.
Histograms drawn by inverse-CDF sampling in earlier releases differ from
today's for the same seed.

Point estimates come from the standard witness path, exact for the
empirical frequencies (minors, Q_B and the cross minor are rounded once
from exact rationals); the bootstrap resamples run the same witness
formulas on floats over a leading resample axis and take all leading
minors from one batched float elimination, which is adequate because
sampling noise dominates float rounding by many orders of magnitude at
any realistic sample size.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import ClickStatistics, JointClickStatistics
from .errors import EmptyHistogram
from .witness import (
    WitnessReport,
    _cross_minor,
    _graded,
    _hankel,
    _joint_pi_map,
    _pi_map,
    _qb_terms,
    witness_report,
)

__all__ = [
    "RngSeed",
    "ClickHistogram",
    "sample_clicks",
    "estimate_statistics",
    "bootstrap_witness",
    "write_histogram_csv",
    "read_histogram_csv",
]

_SEED_LIMIT = 2 ** 64
# counts, totals and sample sizes are int64 (Generator.multinomial takes n
# only below this)
_COUNT_LIMIT = 2 ** 63
# the largest click number a histogram file may hold and the largest bank
# the bootstrap takes: its float moments divide by N!/(N-m)!, and 171! is
# beyond float range
_MAX_OUTCOME = 170
# entries below this are treated as roundoff and clipped before sampling;
# anything more negative is a genuinely signed quasi-distribution
_SIGNED_TOL = 1e-9


@dataclass(frozen=True)
class RngSeed:
    """64-bit unsigned seed for the PCG64 stream."""

    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError("seed must be an integer in [0, 2^64)")


def _as_seed(seed) -> RngSeed:
    if isinstance(seed, RngSeed):
        return seed
    return RngSeed(seed)


def _generator(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_as_seed(seed).seed))


@dataclass(frozen=True)
class ClickHistogram:
    """Tallied click outcomes of a finite measurement run.

    counts is a 1-D array over k = 0..N for a single bank, or a 2-D
    array over (k1, k2) for two banks in coincidence.  Entries are
    non-negative integers below 2^63; `total` is their exact sum, which
    must also stay below 2^63 for estimates to be made from it.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts)
        if arr.ndim not in (1, 2):
            raise ValueError("counts must be a 1-D or 2-D array")
        if any(s < 2 for s in arr.shape):
            raise ValueError("each bank needs outcomes 0..N with N >= 1")
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.rint(arr)
            if not np.all(np.isfinite(arr)) or np.any(rounded != arr):
                raise ValueError("counts must be integers")
            arr = rounded
        if np.any(arr < 0):
            raise ValueError("counts must be non-negative")
        if np.any(arr >= _COUNT_LIMIT):
            raise ValueError("counts must be below 2^63")
        arr = arr.astype(np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    @property
    def is_joint(self) -> bool:
        return self.counts.ndim == 2

    @property
    def total(self) -> int:
        return sum(self.counts.ravel().tolist())

    @property
    def N(self) -> int:
        if self.is_joint:
            raise AttributeError("joint histogram has N1 and N2, not N")
        return self.counts.shape[0] - 1

    @property
    def N1(self) -> int:
        if not self.is_joint:
            raise AttributeError("single-bank histogram has N, not N1")
        return self.counts.shape[0] - 1

    @property
    def N2(self) -> int:
        if not self.is_joint:
            raise AttributeError("single-bank histogram has N, not N2")
        return self.counts.shape[1] - 1


def _sampling_weights(stats) -> tuple:
    """Flattened outcome probabilities, cleaned for sampling."""
    if isinstance(stats, ClickStatistics):
        flat = np.array(stats.probs, dtype=float)
        shape = (stats.N + 1,)
    elif isinstance(stats, JointClickStatistics):
        flat = np.asarray(stats.probs, dtype=float).ravel()
        shape = (stats.N1 + 1, stats.N2 + 1)
    else:
        raise TypeError(f"unsupported statistics type {type(stats).__name__}")
    if np.min(flat) < -_SIGNED_TOL:
        raise ValueError(
            "statistics carry negative entries beyond roundoff; a signed "
            "quasi-distribution cannot be sampled")
    flat = np.clip(flat, 0.0, None)
    return flat / flat.sum(), shape


def sample_clicks(stats, n_samples: int, seed) -> ClickHistogram:
    """Histogram of n_samples i.i.d. click outcomes.

    The histogram is one multinomial draw over the flattened outcome
    list in index order (row-major for joint statistics): the tally of
    n_samples categorical draws has exactly this distribution, and the
    draw costs O(N) whatever n_samples is.  A fixed seed fixes the
    histogram.  `seed` may be an RngSeed or a plain integer;
    n_samples must lie in [1, 2^63).
    """
    if not isinstance(n_samples, int) or not 1 <= n_samples < _COUNT_LIMIT:
        raise ValueError("n_samples must be an integer in [1, 2^63)")
    weights, shape = _sampling_weights(stats)
    counts = _generator(seed).multinomial(n_samples, weights)
    return ClickHistogram(counts.reshape(shape))


def _events(hist: ClickHistogram) -> int:
    """The histogram's total, refused when it is 0 or beyond int64."""
    total = hist.total
    if total < 1:
        raise EmptyHistogram("histogram holds no events")
    if total >= _COUNT_LIMIT:
        raise ValueError("histogram holds 2^63 events or more")
    return total


def estimate_statistics(hist: ClickHistogram):
    """Empirical click statistics with multinomial standard errors.

    Returns ClickStatistics or JointClickStatistics with probs set to
    counts/total and stderr to sqrt(p(1-p)/total) entrywise.
    """
    total = _events(hist)
    freq = hist.counts / total
    se = np.sqrt(freq * (1.0 - freq) / total)
    if hist.is_joint:
        return JointClickStatistics(N1=hist.N1, N2=hist.N2, probs=freq,
                                    stderr=se)
    return ClickStatistics(N=hist.N, probs=tuple(freq), stderr=tuple(se))


# --- bootstrap ------------------------------------------------------------------


def _batched_minors(mats: np.ndarray) -> np.ndarray:
    """Leading principal minors of a stack of symmetric matrices.

    mats has shape (R, d, d); the result (R, d) holds det of the k x k
    top-left block in column k-1.  One Gaussian elimination without
    pivoting runs over the resample axis, and minor k is the product of
    the first k pivots.  A replica whose first zero pivot, at step k, sits
    over an exactly zero column (the vanishing higher moments of a Fock
    source) has minors k+1..d exactly 0: each is the first k pivots times
    a determinant of the Schur complement, whose first column is zero.  A
    replica with any other zero or non-finite pivot takes its minors from
    np.linalg.det.  Float precision only: used for bootstrap spread, not
    for point estimates.
    """
    a = np.array(mats, dtype=float)
    d = a.shape[-1]
    pivots = np.empty(a.shape[:-1])
    zero_column = np.empty(a.shape[:-1], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(d):
            pivots[:, k] = a[:, k, k]
            zero_column[:, k] = ~np.any(a[:, k:, k], axis=1)
            factors = a[:, k + 1:, k] / a[:, k, k, None]
            a[:, k + 1:, k + 1:] -= factors[:, :, None] * a[:, None, k, k + 1:]
        minors = np.cumprod(pivots, axis=1)
    regular = np.isfinite(pivots) & (pivots != 0)
    replicas = np.arange(len(a))
    first = np.argmin(regular, axis=1)  # the first zero or non-finite pivot
    bad = ~regular[replicas, first]
    flat = bad & zero_column[replicas, first]
    minors[flat] = np.where(np.arange(d) < first[flat, None], minors[flat], 0.0)
    bad &= ~flat
    if bad.any():
        sub = mats[bad]
        minors[bad] = np.stack([np.linalg.det(sub[:, :k, :k])
                                for k in range(1, d + 1)], axis=1)
    return minors


def _replicas(freqs: np.ndarray, hist: ClickHistogram) -> dict:
    """Moments and witness criteria of a stack of frequency tables.

    freqs carries a leading resample axis; the witness formulas of the
    point estimates run over it unchanged, and only the minors are taken
    in float.  Q_B keeps the replicas whose mean leaves a spread.
    """
    if hist.is_joint:
        moms = _joint_pi_map(freqs, hist.N1, hist.N2)
        return {"moments": moms,
                "minors": _batched_minors(_graded(moms, hist.N1, hist.N2)),
                "cross": _cross_minor(moms)}
    moms = _pi_map(freqs, hist.N)
    _, num, den = _qb_terms(freqs, hist.N)
    ok = den > 0
    return {"moments": moms,
            "minors": _batched_minors(_hankel(moms, hist.N)),
            "qb": num[ok] / den[ok] - 1.0}


def bootstrap_witness(hist: ClickHistogram, resamples: int, seed,
                      threshold_sigmas: float = 3.0) -> WitnessReport:
    """Witness report with bootstrap uncertainties from a histogram.

    Point estimates come from the standard witness path on the
    empirical statistics.  `resamples` multinomial resamples of the
    histogram give empirical standard errors, and the verdict flags
    nonclassicality when any leading minor beyond the first, the Q
    parameter, or the cross-correlation minor satisfies

        point estimate < -threshold_sigmas * stderr.

    The minimum eigenvalue is reported but kept out of the sampled
    verdict: for data compatible with a semidefinite matrix its
    estimate is biased to the negative side, so a sigma rule on it
    over-rejects.
    """
    if not isinstance(resamples, int) or resamples < 100:
        raise ValueError("resamples must be an integer >= 100")
    if not threshold_sigmas > 0:
        raise ValueError("threshold_sigmas must be > 0")
    if max(hist.counts.shape) - 1 > _MAX_OUTCOME:
        raise ValueError(f"the bootstrap takes banks of at most {_MAX_OUTCOME} "
                         f"diodes, not {max(hist.counts.shape) - 1}")
    total = _events(hist)
    stats = estimate_statistics(hist)
    base = witness_report(stats)

    weights = hist.counts.ravel() / total
    weights = weights / weights.sum()
    rng = _generator(seed)
    draws = rng.multinomial(total, weights, size=resamples) / total

    rep = _replicas(draws.reshape((resamples,) + hist.counts.shape), hist)
    cross_se = (float(np.std(rep["cross"], ddof=1)) if "cross" in rep
                else None)
    qb_se = (float(np.std(rep["qb"], ddof=1))
             if len(rep.get("qb", ())) >= 2 else None)

    minor_se = tuple(float(s) for s in np.std(rep["minors"], axis=0, ddof=1))

    criteria = [(m, s) for m, s in zip(base.leading_minors[1:], minor_se[1:])]
    if base.qb is not None and qb_se is not None:
        criteria.append((base.qb, qb_se))
    if base.cross_minor is not None and cross_se is not None:
        criteria.append((base.cross_minor, cross_se))
    flagged = any(value < -threshold_sigmas * se for value, se in criteria)
    verdict = "nonclassical" if flagged else "consistent-with-classical"

    uncertainties = {"leading_minors": minor_se, "resamples": resamples}
    if qb_se is not None:
        uncertainties["qb"] = qb_se
    if cross_se is not None:
        uncertainties["cross_minor"] = cross_se

    return WitnessReport(leading_minors=base.leading_minors,
                         min_eigenvalue=base.min_eigenvalue,
                         verdict=verdict, threshold=threshold_sigmas,
                         qb=base.qb, cross_minor=base.cross_minor,
                         uncertainties=uncertainties)


# --- histogram files -------------------------------------------------------------


def _table_rows(table, name: str) -> tuple:
    """(header, rows) of a click table: k,<name> rows of a 1-D table, or
    k1,k2,<name> rows of a 2-D one in row-major order."""
    table = np.asarray(table)
    if table.ndim == 1:
        return ["k", name], [[k, x] for k, x in enumerate(table.tolist())]
    return ["k1", "k2", name], [[k1, k2, x] for k1, row in
                                enumerate(table.tolist())
                                for k2, x in enumerate(row)]


def write_histogram_csv(hist: ClickHistogram, path) -> None:
    """Write a histogram as CSV: header k,count or k1,k2,count."""
    header, rows = _table_rows(hist.counts, "count")
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_histogram_csv(path) -> ClickHistogram:
    """Read a histogram CSV written by write_histogram_csv.

    Rows may arrive in any order; outcomes absent from the file count
    as zero.  Duplicate outcome rows, and click numbers above _MAX_OUTCOME
    (so a joint table above 171 x 171), are rejected before any table is
    made.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        header = [h.strip().lower() for h in header]
        if header not in (["k", "count"], ["k1", "k2", "count"]):
            raise ValueError(
                f"unrecognized histogram header {header!r}; expected "
                "k,count or k1,k2,count")
        entries = {}
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"malformed histogram row {row!r}")
            try:
                nums = [int(cell) for cell in row]
            except ValueError:
                raise ValueError(f"non-integer histogram row {row!r}") from None
            key = tuple(nums[:-1])
            if any(k < 0 for k in key) or nums[-1] < 0:
                raise ValueError(f"negative value in histogram row {row!r}")
            if any(k > _MAX_OUTCOME for k in key):
                raise ValueError(f"click number above {_MAX_OUTCOME} in "
                                 f"histogram row {row!r}")
            if nums[-1] >= _COUNT_LIMIT:
                raise ValueError(f"count of 2^63 or more in histogram row {row!r}")
            if key in entries:
                raise ValueError(f"duplicate outcome {key} in {path}")
            entries[key] = nums[-1]
    if not entries:
        raise ValueError(f"{path} holds no histogram rows")
    counts = np.zeros([max(2, 1 + max(key[i] for key in entries))
                       for i in range(len(header) - 1)], dtype=np.int64)
    for key, c in entries.items():
        counts[key] = c
    return ClickHistogram(counts)
