"""Inverse path: click statistics to moments, moment matrices and verdicts.

The click-fraction observable of one diode has normally ordered moments
that are plain linear combinations of the click numbers,

    <:pi^m:> = (N-m)!/N! * sum_k k(k-1)...(k-m+1) c_k.

Arranging the moments into a Hankel matrix (or its two-bank generalization
over a graded basis) gives a matrix that is positive semidefinite for every
classical state; any negative leading principal minor, negative eigenvalue,
negative cross-correlation minor, or negative binomial Q parameter
certifies nonclassicality.

Statistics hold their numbers as Python integers n over one scale L,
read once where they were made (their `exact` Fractions, their floats,
each a dyadic rational, or an estimate's counts over their total), in a
table with one axis per bank, and each inverse step is written once over
those axes.  The moments weigh the table along each axis, so every
moment is an integer over one scale S, L times each bank's N! (all
divided by their greatest common divisor).  The moment matrix indexes
them over exponent tuples up to N//2 per bank by total degree (a Hankel
matrix for one bank), so minor k is an integer determinant over S^k.
Q_B and the cross minor come from the same read, and Q_B's float error
bounds are compared with its exact mean on integers.  Every number
reported is exact until one integer division, which Python rounds
correctly to float.  The minors, many orders below the matrix entries,
are the pivots of one fraction-free elimination, which keeps a symmetric
matrix symmetric and so updates the upper triangle alone.  The `exact`
fields of the moment containers the library builds are reduced
Fractions, made from the integers only when first read.  The bootstrap's
resamples share the matrix index, Q_B's terms and the cross minor, on
floats with the resample axis last.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .detector import (_NORM_TOL, ClickStatistics, JointClickStatistics,
                       _as_built, _Exact, _lowest, _read_only)
from .errors import (
    DegenerateMean,
    InsufficientOrder,
    NormalizationViolation,
    OrderExceedsDiodes,
)
from .series import _integers, _kept, _reals

__all__ = [
    "PiMoments",
    "JointPiMoments",
    "MomentMatrix",
    "WitnessReport",
    "factorial_moment",
    "pi_moments",
    "joint_pi_moments",
    "moment_matrix",
    "joint_moment_matrix",
    "leading_principal_minors",
    "min_eigenvalue",
    "qb_parameter",
    "cross_correlation_minor",
    "witness_report",
]

DEFAULT_THRESHOLD = 1e-9


def _order(m) -> int:
    """A moment order: an integer, or an integral float, >= 0, as an int."""
    if (isinstance(m, (int, np.integer))
            or isinstance(m, float) and m.is_integer()) and m >= 0:
        return int(m)
    raise ValueError(f"moment order {m!r} is not an integer >= 0")


def _check_unit(value: float, slack: float, what: str) -> None:
    """The zeroth moment is one, less at most the state's tail (`slack`)."""
    if not abs(value - 1.0) <= _NORM_TOL + slack:
        raise NormalizationViolation(f"{what} is {float(value)!r}, not 1")


@dataclass(frozen=True)
class PiMoments:
    """Normally ordered click-fraction moments, orders 0..max_order."""

    values: tuple
    max_order: int
    exact: tuple | None = _Exact()
    formal: bool = False
    norm_slack: float = 0.0
    _ints = None  # with _scale, the integers `_as_built` gave it

    def __post_init__(self):
        m = _order(self.max_order)
        values = tuple(_reals(self.values, (m + 1,), "moments").tolist())
        _check_unit(values[0], self.norm_slack, "zeroth moment")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "max_order", m)


@dataclass(frozen=True)
class JointPiMoments:
    """Two-bank moments values[m1, m2], orders 0..N_d per mode."""

    values: np.ndarray
    max_orders: tuple
    exact: tuple | None = _Exact()
    formal: bool = False
    norm_slack: float = 0.0
    _ints = None  # with _scale, the integers `_as_built` gave it

    def __post_init__(self):
        m1, m2 = map(_order, self.max_orders)
        arr = _reals(self.values, (m1 + 1, m2 + 1), "joint moments")
        _check_unit(arr[0, 0], self.norm_slack, "(0,0) moment")
        object.__setattr__(self, "values", _kept(arr, self.values))
        object.__setattr__(self, "max_orders", (m1, m2))


@dataclass(frozen=True)
class MomentMatrix:
    """Symmetric matrix of moments over an ordered exponent basis."""

    entries: np.ndarray
    index_basis: tuple
    exact: tuple | None = _Exact()
    norm_slack: float = 0.0
    _ints = None  # with _scale, the integers `_as_built` gave it

    def __post_init__(self):
        basis = tuple(self.index_basis)
        arr = _reals(self.entries, (len(basis),) * 2, "moment matrix")
        if not np.max(np.abs(arr - arr.T)) <= 1e-12:
            raise ValueError("matrix of moments must be symmetric")
        _check_unit(arr[0, 0], self.norm_slack, "top-left entry")
        object.__setattr__(self, "entries", _kept(arr, self.entries))
        object.__setattr__(self, "index_basis", basis)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class WitnessReport:
    """Nonclassicality certificate assembled from one statistics object.

    verdict is "nonclassical" when any reported criterion (leading minors
    beyond the trivial 1x1, minimum eigenvalue, cross-correlation minor,
    binomial Q parameter) falls below -threshold; with bootstrap
    uncertainties attached the rule is value < -k*stderr instead.
    """

    leading_minors: tuple
    min_eigenvalue: float
    verdict: str
    threshold: float
    qb: float | None = None
    cross_minor: float | None = None
    uncertainties: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "leading_minors": list(self.leading_minors),
            "min_eigenvalue": self.min_eigenvalue,
            "qb": self.qb,
            "cross_minor": self.cross_minor,
            "verdict": self.verdict,
            "threshold": self.threshold,
        }
        if self.uncertainties is not None:
            out["uncertainties"] = {
                k: (list(v) if isinstance(v, (list, tuple)) else v)
                for k, v in self.uncertainties.items()
            }
        return out


# --- the inverse formulas ---------------------------------------------------------

@lru_cache(maxsize=64)
def _weights(N: int) -> tuple:
    """Integer weights over k = 0..N: the falling factorials P[m, k] =
    k!/(k-m)!, the click powers (k, k^2), and (N-m)! P[m, k], whose sums
    with c_k are N! <:pi^m:> (along each axis for two banks)."""
    ks = range(N + 1)
    falling = np.array([[math.perm(k, m) for k in ks] for m in ks],
                       dtype=object)
    powers = np.array([list(ks), [k * k for k in ks]], dtype=object)
    pi = falling * np.array([[math.factorial(N - m)] for m in ks], dtype=object)
    return _read_only(falling, powers, pi)


@lru_cache(maxsize=64)
def _basis(Ns: tuple) -> tuple:
    """Exponent tuples up to N_a//2 on each bank a, by total degree, then
    the first bank's exponent highest first: 0..N//2 for one bank."""
    exps = itertools.product(*(range(N // 2 + 1) for N in Ns))
    return tuple(sorted(exps, key=lambda e: (sum(e), [-m for m in e])))


@lru_cache(maxsize=64)
def _graded_index(Ns: tuple) -> tuple:
    """Per bank axis, the order m_a + m_b of entry (a, b) over the basis,
    read-only: i + j for one bank (a Hankel matrix)."""
    e = np.array(_basis(Ns), dtype=int).reshape(-1, len(Ns))
    return _read_only(*(e[:, a, None] + e[:, a] for a in range(len(Ns))))


def _qb_terms(mean, second, N: int, scale: int = 1):
    """Q_B + 1 as N Var(c) over <c>(N - <c>), from <c> and <c^2> times
    scale."""
    return N * (second * scale - mean ** 2), mean * (N * scale - mean)


def _cross_minor(v, scale: int = 1):
    """scale^4 det of the centered second-moment block, from moments [m1, m2]
    times scale (over any trailing axes)."""
    v1 = v[2, 0] * scale - v[1, 0] ** 2
    v2 = v[0, 2] * scale - v[0, 1] ** 2
    cov = v[1, 1] * scale - v[1, 0] * v[0, 1]
    return v1 * v2 - cov ** 2


# --- moments and moment matrices --------------------------------------------------

def factorial_moment(stats: ClickStatistics, m: int) -> float:
    """sum_k k(k-1)...(k-m+1) c_k."""
    m = _order(m)
    if m > stats.N:
        raise OrderExceedsDiodes(
            f"order {m} exceeds the {stats.N}-diode bank")
    return (_weights(stats.N)[0][m] @ stats._ints) / stats._scale


def _moments(stats) -> tuple:
    """The moments [m_1, .., m_a] of statistics with one axis per bank, as
    integers over one scale: N_a! <:pi_a^m_a:> weights along each axis, so
    the scale is `_scale` times every N_a!, reduced by `_lowest`."""
    n, scale = stats._ints, stats._scale
    for K in n.shape:  # axis by axis, moving each contracted one last
        n = (_weights(K - 1)[2] @ n).T
        scale *= math.factorial(K - 1)
    return _lowest(n, scale)


def pi_moments(stats: ClickStatistics) -> PiMoments:
    """All normally ordered click-fraction moments, orders 0..N."""
    mom, scale = _moments(stats)
    return _as_built(PiMoments, values=tuple((mom / scale).tolist()),
                     max_order=stats.N, exact=..., formal=stats.formal,
                     norm_slack=stats.norm_slack, _ints=mom, _scale=scale)


def joint_pi_moments(stats: JointClickStatistics) -> JointPiMoments:
    """Two-bank moments values[m1, m2] for m_d = 0..N_d."""
    mom, scale = _moments(stats)
    return _as_built(JointPiMoments,
                     values=_read_only((mom / scale).astype(float))[0],
                     max_orders=(stats.N1, stats.N2), exact=...,
                     formal=stats.formal, norm_slack=stats.norm_slack,
                     _ints=mom, _scale=scale)


def _matrix(mom, Ns: tuple, basis: tuple) -> MomentMatrix:
    """The moments of banks of Ns diodes over the basis, from the integers
    that `mom` carries, or, for moments the caller built, from their
    `exact` values when given.  Those the library built are taken as built:
    their zeroth moment is the statistics' checked total, and the index
    makes the matrix symmetric."""
    index = _graded_index(Ns)
    entries = np.asarray(mom.values)[index]
    if mom._ints is not None:
        return _as_built(MomentMatrix, entries=_read_only(entries)[0],
                         index_basis=basis, exact=..., norm_slack=mom.norm_slack,
                         _ints=mom._ints[index], _scale=mom._scale)
    exact = None if mom.exact is None else tuple(map(tuple, np.asarray(
        mom.exact, dtype=object)[index].tolist()))
    return MomentMatrix(entries, basis, exact=exact, norm_slack=mom.norm_slack)


def moment_matrix(mom: PiMoments, N: int) -> MomentMatrix:
    """Hankel matrix M[i,j] = <:pi^(i+j):> of size floor(N/2)+1."""
    half = N // 2
    if mom.max_order < 2 * half:
        raise InsufficientOrder(
            f"need moments through order {2 * half}, have {mom.max_order}")
    return _matrix(mom, (N,), tuple(range(half + 1)))


def joint_moment_matrix(mom: JointPiMoments, N1: int, N2: int) -> MomentMatrix:
    """Matrix M[a,b] = <:pi1^(m1a+m1b) pi2^(m2a+m2b):> over the graded basis."""
    b1, b2 = N1 // 2, N2 // 2
    if mom.max_orders[0] < 2 * b1 or mom.max_orders[1] < 2 * b2:
        raise InsufficientOrder(
            f"need moments through orders ({2 * b1}, {2 * b2}), "
            f"have {mom.max_orders}")
    return _matrix(mom, (N1, N2), _basis((N1, N2)))


# --- minors, eigenvalues, verdicts ------------------------------------------------

def _det(a) -> int:
    """Determinant of a square integer matrix (a list of rows, changed in
    place) by fraction-free Bareiss elimination, whose every division is
    exact; rows are exchanged past a zero pivot."""
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - f * row_k[j]) // prev
        prev = pivot
    return sign * prev


def _leading_minors(a) -> list:
    """All leading principal minors of a square integer matrix (a list of
    rows) from one Bareiss pass without row exchanges, whose pivot at step
    k is the (k+1) x (k+1) minor; past a zero pivot the larger blocks go
    to `_det`.

    Entry (i, j) after step k is the minor of the leading k x k block
    bordered by row i and column j, so an exactly symmetric matrix stays
    symmetric: then only the upper triangle is updated, and row i takes
    its multiplier from row k.  Any other matrix gets the full update.
    By Sylvester's identity each larger leading minor is a determinant of
    those bordered minors, so a zero pivot whose row is zero from column k
    on (the part every update keeps current) makes all of them 0.
    """
    n, rows, prev, minors = len(a), [row[:] for row in a], 1, []
    symmetric = all(row == list(col) for row, col in zip(rows, zip(*rows)))
    for k, row_k in enumerate(rows):
        pivot = row_k[k]
        minors.append(pivot)
        if not pivot:
            if not any(row_k[k:]):
                return minors + [0] * (n - k - 1)
            return minors + [_det([row[:j] for row in a[:j]])
                             for j in range(k + 2, n + 1)]
        for i in range(k + 1, n):
            row = rows[i]
            f, start = (row_k[i], i) if symmetric else (row[k], k + 1)
            for j in range(start, n):
                row[j] = (pivot * row[j] - f * row_k[j]) // prev
        prev = pivot
    return minors


def leading_principal_minors(M: MomentMatrix) -> tuple:
    """Determinants of the k x k top-left blocks, k = 1..dim.

    The minors cancel many orders below the entries, so they are taken
    exactly: the entries are integers over one scale S (those the library
    built the matrix on; for a matrix built by the caller, its exact
    entries, else its floats, over the least common multiple of their
    denominators), whose k x k minor, divided by S^k, rounds once to
    float.  One fraction-free elimination gives all of them.
    """
    n, scale = ((M._ints, M._scale) if M._ints is not None else
                _integers(M.entries if M.exact is None else M.exact))
    minors, power = [], 1
    for m in _leading_minors(n.tolist()):
        power *= scale
        minors.append(m / power)
    return tuple(minors)


def min_eigenvalue(M: MomentMatrix) -> float:
    """Smallest eigenvalue of the (symmetric) matrix of moments."""
    return float(np.linalg.eigvalsh(M.entries)[0])


def qb_parameter(stats: ClickStatistics) -> float:
    """Binomial Q parameter N Var(c)/(<c>(N - <c>)) - 1.

    Zero for binomial statistics; negative values certify nonclassicality,
    positive values mark super-binomial spread.  With each c_k within
    exact_error + relative_error |c_k|, the mean is within err = sum_k k
    times that.  The same errors move the total by up to (N+1) exact_error
    + relative_error sum_k |c_k|; numbers whose total lies off
    [1 - norm_slack, 1] by d more than that (float rounding, which
    normalization tolerates) carry d of error that no entry accounts for,
    and err grows by N d.  A truncated tail only adds clicks, at most
    N * norm_slack to the mean, so Q_B is withheld when the mean may be 0
    or N.  Above N/2 the tail moves the statistics toward that saturation,
    and the mean's error there is e = err + N * norm_slack; below, e = err
    and Q_B is that of the truncated statistics.  Then N Var - <c>(N - <c>)
    is within (N-1) e (N + 2<c> + e) and the denominator <c>(N - <c>)
    within e (|N - 2<c>| + e); Q_B is withheld when these errors leave it
    not known to within one.
    """
    N, n, scale = stats.N, stats._ints, stats._scale
    mean, second = _weights(N)[1] @ n
    num, den = _qb_terms(mean, second, N, scale)
    m = mean / scale
    total = (int(n.sum()) - scale) / scale
    slack = ((N + 1) * stats.exact_error
             + stats.relative_error * (sum(map(abs, n.tolist())) / scale))
    defect = max(0.0, total - slack, -total - stats.norm_slack - slack)
    err = (N * (N + 1) / 2 * stats.exact_error + stats.relative_error * m
           + N * defect)
    tail = N * stats.norm_slack
    # err < mean < N - err - tail, the mean taken exactly
    if _above(mean, scale, err) and _above(-mean, scale, -(N - err - tail)):
        qb = (num - den) / den
        e = err + tail if 2 * m > N else err
        bound = ((N - 1) * e * (N + 2 * m + e)
                 + (1 + abs(qb)) * e * (abs(N - 2 * m) + e))
        if bound < den / scale ** 2:
            return qb
    raise DegenerateMean(
        f"mean click number {m!r} leaves no resolved spread")


def _above(n: int, d: int, x: float) -> bool:
    """n / d > x for d > 0, exactly: against the float's own integer ratio;
    a non-finite x decides as 0 > x, as it would against any finite n / d."""
    if not math.isfinite(x):
        return 0.0 > x
    p, q = x.as_integer_ratio()
    return n * q > p * d


def _cross(stats: JointClickStatistics, mom: JointPiMoments) -> float:
    """The cross minor of two banks from the moments `joint_pi_moments`
    made."""
    if stats.N1 < 2 or stats.N2 < 2:
        raise OrderExceedsDiodes(
            "cross-correlation minor needs at least two diodes per bank")
    return _cross_minor(mom._ints, mom._scale) / mom._scale ** 4


def cross_correlation_minor(stats: JointClickStatistics) -> float:
    """det of the centered second-moment block of two banks,

        <:(d pi1)^2:> <:(d pi2)^2:> - <:(d pi1)(d pi2):>^2,

    non-negative for every classically correlated pair of fields.
    """
    return _cross(stats, joint_pi_moments(stats))


def witness_report(stats, threshold: float = DEFAULT_THRESHOLD) -> WitnessReport:
    """Assemble all nonclassicality criteria for one statistics object."""
    if not threshold >= 0:  # NaN too, which no criterion falls below
        raise ValueError("threshold must be >= 0")
    if not isinstance(stats, (ClickStatistics, JointClickStatistics)):
        raise TypeError(f"unsupported statistics type {type(stats).__name__}")
    qb = cross = None
    if isinstance(stats, ClickStatistics):
        M = moment_matrix(pi_moments(stats), stats.N)
        try:
            qb = qb_parameter(stats)
        except DegenerateMean:
            pass
    else:
        mom = joint_pi_moments(stats)
        M = joint_moment_matrix(mom, stats.N1, stats.N2)
        cross = _cross(stats, mom)
    minors = leading_principal_minors(M)
    mineig = min_eigenvalue(M)
    criteria = list(minors[1:]) + [mineig]
    if qb is not None:
        criteria.append(qb)
    if cross is not None:
        criteria.append(cross)
    verdict = ("nonclassical" if min(criteria) < -threshold
               else "consistent-with-classical")
    return WitnessReport(leading_minors=minors, min_eigenvalue=mineig,
                         verdict=verdict, threshold=threshold, qb=qb,
                         cross_minor=cross)
