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

What the library makes and has checked itself is taken as built
(`detector._as_built`): a draw's int64 counts (each at most the sample
size), a histogram file's table (every row checked as it is read), and
the statistics `estimate_statistics` makes, counts over their exact total
that the constructors' checks would pass unchanged; a caller's counts
and statistics keep every check.  The cleaned sampling weights stay with
the statistics object after its first draw: this helps only repeated
draws from one object.

Point estimates are `witness_report` on `estimate_statistics`, which carry
the counts as integers over their total: exact for counts/total and
rounded once.  The bootstrap reads a histogram's shape as one axis per
bank: one product with a cached float map, the Kronecker product of the
banks' moment rows (and <c>, <c^2> for one bank), gives every replica's
moments with the resample axis last, placed by the witness's matrix
index, and all leading minors come from one float elimination over the
upper triangle, which steps over the zero pivots of a Fock source's
vanishing moments.  Floats suffice on banks of a few diodes, where
sampling noise dominates rounding by many orders of magnitude; on tens
of diodes the high-order minors are rounding noise, and further on they
underflow to 0.  Their spread is taken on deviations scaled to one, in
one pass with that of the criterion beside them, Q_B for one bank or the
cross minor for two, when no replica lacks it.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from pathlib import Path

import numpy as np

from .detector import (ClickStatistics, JointClickStatistics, _as_built,
                       _read_only)
from .errors import EmptyHistogram
from .witness import (
    WitnessReport,
    _cross_minor,
    _graded_index,
    _qb_terms,
    _weights,
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
    must also stay below 2^63 for estimates to be made from it, read once.
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

    @cached_property
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
    """Flattened outcome probabilities, cleaned for sampling, and the
    table's shape; kept on the statistics object after its first draw."""
    kept = getattr(stats, "_sampling", None)
    if kept is not None:
        return kept
    if not isinstance(stats, (ClickStatistics, JointClickStatistics)):
        raise TypeError(f"unsupported statistics type {type(stats).__name__}")
    flat = np.asarray(stats.probs, dtype=float).ravel()
    shape = stats._ints.shape
    if np.min(flat) < -_SIGNED_TOL:
        raise ValueError(
            "statistics carry negative entries beyond roundoff; a signed "
            "quasi-distribution cannot be sampled")
    flat = np.clip(flat, 0.0, None)
    weights = flat / flat.sum()
    weights.setflags(write=False)
    # not a field: the statistics' ==, hash and repr stay as they were
    object.__setattr__(stats, "_sampling", (weights, shape))
    return weights, shape


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
    counts = _generator(seed).multinomial(n_samples, weights).reshape(shape)
    # int64 counts, each at most n_samples: nothing to check
    return _as_built(ClickHistogram, counts=_read_only(counts)[0])


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
    counts/total and stderr to sqrt(p(1-p)/total) entrywise.  They are
    taken as built: counts of a histogram are non-negative integers, so
    counts over their exact total are finite, non-negative and sum to one
    exactly, and the constructors' checks would pass them unchanged.
    """
    total = _events(hist)
    freq = hist.counts / total
    se = np.sqrt(freq * (1.0 - freq) / total)
    counts = np.array(hist.counts.tolist(), dtype=object)
    if hist.is_joint:
        probs, stderr = _read_only(freq, se)
        return _as_built(JointClickStatistics, N1=hist.N1, N2=hist.N2,
                         probs=probs, stderr=stderr, _ints=counts, _scale=total)
    return _as_built(ClickStatistics, N=hist.N, probs=tuple(freq.tolist()),
                     stderr=tuple(se.tolist()), _ints=counts, _scale=total)


# --- bootstrap ------------------------------------------------------------------


@lru_cache(maxsize=64)
def _replica_map(shape: tuple) -> tuple:
    """(W, index) for histograms of this shape, one axis per bank, read-only.

    W maps a flattened histogram, as a column, to its moments: the
    Kronecker product over the banks of the rows k!/(k-m)! / (N!/(N-m)!),
    m = 0..N, so that row m1 (N2+1) + m2 holds moment [m1, m2] of two
    banks and row m moment m of one; for one bank the click powers k and
    k^2 follow.  Entry (i, j) of the moment matrix is row index[i, j].
    """
    Ns = tuple(K - 1 for K in shape)
    falling = [_weights(N)[0] for N in Ns]
    W = reduce(np.kron, [(f / f[:, -1:]).astype(float) for f in falling])
    if len(Ns) == 1:
        W = np.vstack([W, _weights(Ns[0])[1].astype(float)])
    return _read_only(W, np.ravel_multi_index(_graded_index(Ns), shape))


def _batched_minors(moms: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Leading principal minors of a stack of symmetric matrices.

    moms has shape (M, R), the resample axis last, and entry (i, j) of
    replica r's d x d matrix is moms[index[i, j], r]; the result (d, R)
    holds det of the k x k top-left block in row k-1.  One Gaussian
    elimination without pivoting runs over the whole stack at once, and
    minor k is the product of the first k pivots.  A symmetric matrix stays
    symmetric under it, so only the upper triangle is taken out of moms and
    updated, row by row, and row i takes its multiplier from row k.  A
    zero pivot over a zero row (the vanishing higher moments of a Fock
    source) is stepped over with zero multipliers: every later minor is
    then exactly 0, the first k pivots times a determinant whose first row
    is zero.  A zero pivot over a nonzero row gives an infinite multiplier,
    and so a non-finite pivot further on; a replica with any non-finite
    pivot takes its minors from np.linalg.det.  Float precision only: used
    for bootstrap spread, not for point estimates.
    """
    d, R = len(index), moms.shape[-1]
    rows = [moms[index[i, i:]] for i in range(d)]  # row i: columns i..d-1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k, row in enumerate(rows):
            f = row[1:] / row[0]
            if np.count_nonzero(row[0]) < R:
                np.copyto(f, 0.0, where=(row[0] == 0) & ~row[1:].any(axis=0))
            for i in range(k + 1, d):
                rows[i] -= f[i - k - 1] * row[i - k:]
        pivots = np.array([row[0] for row in rows])
        minors = np.cumprod(pivots, axis=0)
    if np.isfinite(minors[-1]).all():
        return minors
    bad = ~np.isfinite(pivots).all(axis=0)
    if bad.any():
        sub = np.moveaxis(moms[:, bad][index], -1, 0)
        minors[:, bad] = [np.linalg.det(sub[:, :k, :k]) for k in range(1, d + 1)]
    return minors


def _replicas(draws: np.ndarray, total: int, shape: tuple) -> tuple:
    """(minors, name, values): the leading minors of resampled histograms,
    and the criterion beside them, Q_B ("qb") for one bank and the cross
    minor ("cross_minor") for two.

    draws holds one flattened histogram of `total` events per row.  One
    product with the cached `_replica_map` gives every replica's moments,
    and for one bank <c> and <c^2>, with the resample axis last; the
    moment matrices are indexed straight out of them.  Q_B keeps the
    replicas whose mean leaves a spread, all of them on most histograms.
    """
    W, index = _replica_map(shape)
    moms = W @ draws.T
    moms /= total
    minors = _batched_minors(moms, index)
    if len(shape) == 2:
        return minors, "cross_minor", _cross_minor(moms.reshape(shape + (-1,)))
    N = shape[0] - 1
    num, den = _qb_terms(moms[N + 1], moms[N + 2], N)
    ok = den > 0
    return minors, "qb", (num / den if ok.all() else num[ok] / den[ok]) - 1.0


def _spread(x: np.ndarray) -> np.ndarray:
    """Sample standard deviation (ddof = 1) along the last axis, from the
    deviations over their largest magnitude, whose squares do not underflow
    below 1e-154 as the deviations' own do; a row without deviations is 0."""
    dev = x - x.mean(axis=-1, keepdims=True)
    top = np.abs(dev).max(axis=-1, keepdims=True)
    np.divide(dev, top, out=dev, where=top > 0)
    return top[..., 0] * np.sqrt(np.einsum("...i,...i->...", dev, dev)
                                 / (x.shape[-1] - 1))


def bootstrap_witness(hist: ClickHistogram, resamples: int, seed,
                      threshold_sigmas: float = 3.0) -> WitnessReport:
    """Witness report with bootstrap uncertainties from a histogram.

    Point estimates are the witness on the counts over their total, exact
    until each number is rounded once.  `resamples` multinomial resamples
    of the histogram give empirical standard errors, and the verdict flags
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
    base = witness_report(estimate_statistics(hist), threshold_sigmas)

    weights = hist.counts.ravel() / total
    weights = weights / weights.sum()
    rng = _generator(seed)
    draws = rng.multinomial(total, weights, size=resamples)

    minors, name, last = _replicas(draws, total, hist.counts.shape)
    minor_se = tuple(_spread(minors).tolist())
    last_se = float(_spread(last)) if len(last) >= 2 else None

    uncertainties = {"leading_minors": minor_se, "resamples": resamples}
    criteria = list(zip(base.leading_minors[1:], minor_se[1:]))
    if last_se is not None:
        uncertainties[name] = last_se
        if getattr(base, name) is not None:
            criteria.append((getattr(base, name), last_se))
    flagged = any(value < -threshold_sigmas * se for value, se in criteria)
    verdict = "nonclassical" if flagged else "consistent-with-classical"

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


def _table_text(header: list, rows: list, fmt: str) -> str:
    """A table as CSV text with LF line ends, or as a JSON list of rows."""
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def write_histogram_csv(hist: ClickHistogram, path) -> None:
    """Write a histogram as `sample` prints it: header k,count or k1,k2,count.

    The file is truncated on opening and written in one piece, so a crash
    leaves it empty or complete, never a shorter table that still parses.
    """
    text = _table_text(*_table_rows(hist.counts, "count"), "csv")
    with open(os.fspath(path), "wb") as fh:
        fh.write(text.encode("utf-8"))


def read_histogram_csv(path) -> ClickHistogram:
    """Read a histogram CSV written by write_histogram_csv.

    Rows may arrive in any order; outcomes absent from the file count
    as zero.  Duplicate outcome rows, and click numbers above _MAX_OUTCOME
    (so a joint table above 171 x 171), are rejected before any table is
    made.
    """
    with open(os.fspath(path), "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{Path(path)} is empty") from None
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
                raise ValueError(f"duplicate outcome {key} in {Path(path)}")
            entries[key] = nums[-1]
    if not entries:
        raise ValueError(f"{Path(path)} holds no histogram rows")
    counts = np.zeros([max(2, 1 + max(key[i] for key in entries))
                       for i in range(len(header) - 1)], dtype=np.int64)
    for key, c in entries.items():
        counts[key] = c
    # every entry was checked above, as a caller's counts would be
    return _as_built(ClickHistogram, counts=_read_only(counts)[0])
