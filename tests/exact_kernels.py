"""Exact click kernels t_k(n) as fractions.Fraction, for checking the
float64 kernels of physical responses and the exact kernels of formal ones.

No reference shares code or method with the program's kernels:

* n-photon absorption: t_k(n) N^n counts the ways to place n labelled
  photons on N diodes so that exactly k diodes get n0 or more.  That is
  C(N,k) n! [x^n] A^k B^(N-k) with B = sum_{j<n0} x^j/j! and A = e^x - B,
  expanded by inclusion-exclusion over A = e^x - B into integer sums.
* linear and affine: d diodes fire from dark counts, Binomial(N, 1 - e^-nu),
  and exactly k - d of the other N - d are hit by a photon, each photon
  hitting a given diode with probability eta/N; the hits are counted by
  inclusion-exclusion over the diodes left dark.  eta is the exact binary
  value of the float; e^-nu and 1 - e^-nu are taken at 300 bits, which
  only scales the non-negative dark-count weights.
* formal responses: the no-click values K_s(n) = <n|:exp[-s f(nhat/N)]:|n>
  enter the paper's binomial sum t_k(n) = C(N,k) sum_j C(k,j) (-1)^j
  K_(N-k+j)(n) directly.  For f(x) = x^n0, K_s(n) = sum_j (-s)^j
  n^(n0 j)/(j! N^(n0 j)) in closed form (n^(m) the falling factorial).  For
  a polynomial, the coefficients of exp[-s (f(x/N) - f(0))] are sympy's
  rational power-series exponential (`rs_exp` over QQ, the ring series
  behind sympy's `series`, which is far slower at order 32), times
  e^(-s f(0)) taken at 600 bits.

The witness reference at the end is written from the formulas alone, on
Fractions, with ordinary Gaussian elimination for the determinants; it
shares no code with the program's inverse path.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import mpmath as mp
import numpy as np
from mpmath.libmp import to_rational
from sympy import QQ, ring
from sympy.polys.ring_series import rs_exp


def fraction(x) -> Fraction:
    """The exact value of a float or an mpf, sign included (`man_exp` drops
    it), at any precision."""
    if isinstance(x, mp.mpf):
        return Fraction(*to_rational(x._mpf_))
    return Fraction(x)


@lru_cache(maxsize=None)
def _b_power(n0: int, l: int) -> tuple:
    """m! [x^m] B^l for m = 0..l (n0 - 1), as integers."""
    if l == 0:
        return (1,)
    prev = _b_power(n0, l - 1)
    return tuple(sum(math.comb(m, j) * prev[m - j]
                     for j in range(min(n0 - 1, m) + 1) if m - j < len(prev))
                 for m in range(len(prev) + n0 - 1))


def nabs_kernel(N: int, n0: int, k: int, n: int) -> Fraction:
    """t_k(n) of N diodes that fire on n0 or more photons."""
    total = 0
    for i in range(k + 1):
        b = _b_power(n0, N - k + i)
        total += (-1) ** i * math.comb(k, i) * sum(
            math.comb(n, j) * (k - i) ** (n - j) * b[j]
            for j in range(min(len(b) - 1, n) + 1))
    return Fraction(math.comb(N, k) * total, N ** n)


@lru_cache(maxsize=None)
def _dark(nu: float) -> tuple:
    with mp.workprec(300):
        return fraction(mp.exp(-nu)), fraction(-mp.expm1(-nu))


def linear_kernel(N: int, eta: float, nu: float, k: int, n: int) -> Fraction:
    """t_k(n) of N diodes with response f(x) = eta x + nu."""
    a, b = fraction(eta).as_integer_ratio()
    dark, lit = _dark(nu)
    scale = max(dark.denominator, lit.denominator)  # both powers of two
    q, p = int(dark * scale), int(lit * scale)
    total = 0
    for d in range(k + 1):
        M, m = N - d, k - d
        # (N b)^n times the chance that exactly m of the M dark diodes are hit
        hit = sum((-1) ** i * math.comb(m, i) * (N * b - (M - m + i) * a) ** n
                  for i in range(m + 1))
        total += math.comb(N, d) * p ** d * q ** M * math.comb(M, m) * hit
    return Fraction(total, scale ** N * (N * b) ** n)


def _formal_table(N: int, K, order: int) -> list:
    """t_k(n) = C(N,k) sum_j C(k,j) (-1)^j K(N-k+j, n), n = 0..order."""
    table = [[K(s, n) for n in range(order + 1)] for s in range(N + 1)]
    return [[math.comb(N, k) * sum(math.comb(k, j) * (-1) ** j
                                   * table[N - k + j][n] for j in range(k + 1))
             for n in range(order + 1)] for k in range(N + 1)]


def power_kernels(N: int, n0: int, order: int) -> list:
    """t_k(n) of N diodes with f(x) = x^n0."""
    def K(s, n):
        return sum(Fraction((-s) ** j * math.perm(n, n0 * j),
                            math.factorial(j) * N ** (n0 * j))
                   for j in range(n // n0 + 1))
    return _formal_table(N, K, order)


def poly_kernels(N: int, coefficients, order: int) -> list:
    """t_k(n) of N diodes with f(x) = sum_j coefficients[j] x^j."""
    R, x = ring("x", QQ)
    g = R(0)
    for j, c in enumerate(coefficients[1:], 1):
        c = Fraction(c)
        g += QQ(c.numerator, c.denominator * N ** j) * x ** j
    with mp.workprec(600):
        q = fraction(mp.exp(-mp.mpf(coefficients[0])))
    h = []
    for s in range(N + 1):
        series = rs_exp(-s * g, x, order + 1)
        h.append([Fraction(int(c.numerator), int(c.denominator))
                  for c in (series.coeff(x ** k) for k in range(order + 1))])

    def K(s, n):
        return q ** s * sum(h[s][k] * math.perm(n, k) for k in range(n + 1))
    return _formal_table(N, K, order)


# --- the witness, on Fractions ----------------------------------------------------


def numbers(stats):
    """The statistics' numbers as Fractions: extended values when present."""
    given = stats.exact if stats.exact is not None else stats.probs
    if getattr(stats, "N1", None) is not None:
        return [[fraction(x) for x in row] for row in given]
    return [fraction(x) for x in given]


def pi_ref(c, N):
    return [sum(math.perm(k, m) * c[k] for k in range(N + 1)) / math.perm(N, m)
            for m in range(N + 1)]


def joint_pi_ref(c, N1, N2):
    return [[sum(math.perm(k1, m1) * math.perm(k2, m2) * c[k1][k2]
                 for k1 in range(N1 + 1) for k2 in range(N2 + 1))
             / (math.perm(N1, m1) * math.perm(N2, m2))
             for m2 in range(N2 + 1)] for m1 in range(N1 + 1)]


def det(a):
    """Determinant by Gaussian elimination on Fractions."""
    a = [row[:] for row in a]
    n, d = len(a), Fraction(1)
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            d = -d
        d *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            for j in range(k, n):
                a[r][j] -= f * a[k][j]
    return d


def minors_ref(M):
    return tuple(float(det([row[:k] for row in M[:k]]))
                 for k in range(1, len(M) + 1))


def hankel_ref(mom, N):
    d = N // 2 + 1
    return [[mom[i + j] for j in range(d)] for i in range(d)]


def graded_ref(mom, N1, N2):
    # exponent pairs by total degree, the first mode's exponent descending
    basis = sorted(product(range(N1 // 2 + 1), range(N2 // 2 + 1)),
                   key=lambda e: (e[0] + e[1], -e[0]))
    return [[mom[a1 + b1][a2 + b2] for b1, b2 in basis] for a1, a2 in basis]


def qb_ref(c, N):
    mean = sum(k * ck for k, ck in enumerate(c))
    second = sum(k * k * ck for k, ck in enumerate(c))
    return float(N * (second - mean ** 2) / (mean * (N - mean)) - 1)


def _less(x, y) -> bool:
    """x < y for Fractions and floats, exactly; with a non-finite float on
    either side, as floats."""
    if any(isinstance(v, float) and not math.isfinite(v) for v in (x, y)):
        return float(x) < float(y)
    return Fraction(x) < Fraction(y)


def qb_decision_ref(stats):
    """Q_B, or None where `qb_parameter` must withhold it: the rule of its
    docstring, with the error bounds formed in floats as it states them and
    every comparison with the mean taken on Fractions."""
    N, c = stats.N, numbers(stats)
    mean = sum(k * ck for k, ck in enumerate(c))
    m = float(mean)
    total = float(sum(c) - 1)
    slack = ((N + 1) * stats.exact_error
             + stats.relative_error * float(sum(abs(x) for x in c)))
    defect = max(0.0, total - slack, -total - stats.norm_slack - slack)
    err = (N * (N + 1) / 2 * stats.exact_error + stats.relative_error * m
           + N * defect)
    tail = N * stats.norm_slack
    if not (_less(err, mean) and _less(mean, N - err - tail)):
        return None
    qb = qb_ref(c, N)
    e = err + tail if 2 * m > N else err
    bound = ((N - 1) * e * (N + 2 * m + e)
             + (1 + abs(qb)) * e * (abs(N - 2 * m) + e))
    return qb if bound < float(mean * (N - mean)) else None


def cross_ref(mom):
    v1 = mom[2][0] - mom[1][0] ** 2
    v2 = mom[0][2] - mom[0][1] ** 2
    cov = mom[1][1] - mom[1][0] * mom[0][1]
    return float(v1 * v2 - cov ** 2)


def witness_ref(stats):
    """Moments, matrix, leading minors, smallest eigenvalue, Q_B (None when
    the mean is not strictly inside (0, N)) and cross minor (None for one
    bank)."""
    if getattr(stats, "N1", None) is not None:
        return witness_of(numbers(stats), (stats.N1, stats.N2))
    return witness_of(numbers(stats), (stats.N,))


def histogram_ref(counts):
    """`witness_ref` of a histogram's counts (a list, or a list of rows)
    over their total."""
    if isinstance(counts[0], list):
        total = sum(map(sum, counts))
        return witness_of([[Fraction(x, total) for x in row] for row in counts],
                          (len(counts) - 1, len(counts[0]) - 1))
    total = sum(counts)
    return witness_of([Fraction(x, total) for x in counts], (len(counts) - 1,))


def witness_of(c, dims):
    """`witness_ref` of click numbers c (Fractions) on banks of dims diodes."""
    qb = cross = None
    if len(dims) == 2:
        N1, N2 = dims
        mom = joint_pi_ref(c, N1, N2)
        M = graded_ref(mom, N1, N2)
        cross = cross_ref(mom)
    else:
        N, = dims
        mom = pi_ref(c, N)
        M = hankel_ref(mom, N)
        if 0 < sum(k * ck for k, ck in enumerate(c)) < N:
            qb = qb_ref(c, N)
    return {"moments": mom, "matrix": M, "minors": minors_ref(M),
            "mineig": float(np.linalg.eigvalsh(np.array(M, dtype=float))[0]),
            "qb": qb, "cross": cross}
