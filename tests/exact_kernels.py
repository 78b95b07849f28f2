"""Exact click kernels t_k(n) as fractions.Fraction, for checking the
float64 kernels of physical responses.

Neither reference shares code or method with the program's kernels:

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
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import to_rational


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
