"""Truncated power series and the extended-precision sums built on them.

Everything downstream reduces to one kind of number: the expectation value of
a normally ordered operator function on a Fock state,

    <n| :h(nhat): |n> = sum_k h_k * n(n-1)...(n-k+1),

where h_k are the series coefficients of h.  The falling factorials grow like
n! while the h_k of interest (coefficients of exp[-s*f(x/N)]) alternate in
sign, so the terms cancel almost completely: for a linear response the sum
collapses from magnitude ~(1+g)^n down to (1-g)^n.  Double precision loses
every digit of that well before n = 60.  All such sums are therefore taken
with mpmath floats, at a working precision chosen once, before the sum, from
a magnitude that bounds its rounding error: the sum of the absolute terms.
`_precision_for` turns that magnitude into bits against the one absolute
error target, 1e-40.  (Click kernels need no such sums: they are float64 for
physical responses and exact rationals for formal ones; see the detector.)

mpmath keeps its working precision in one process-global context, which
`mp.workprec` changes for the duration of a block; concurrent threads would
see each other's precision, so these sums are not thread-safe.

Conventions: a series of order L stores coefficients c_0..c_L; arithmetic
truncates above the requested order and never wraps.  Coefficients may be
Python floats, ints, or mpmath values; constructors of high-precision series
return mpmath coefficients, which survive round-trips through the arithmetic
here without loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from .errors import NegativeConstantTerm, OrderTooLow

__all__ = [
    "PowerSeries",
    "series_add",
    "series_mul",
    "series_exp_neg",
    "falling_factorial",
    "diag_matrix_element",
    "auto_precision",
]

#: Floor for the working precision in bits.  53-bit doubles are never enough
#: for the alternating Fock sums; 120 bits covers every small-order case with
#: a wide margin.
MIN_PRECISION = 120

#: Absolute error target for every extended-precision sum in the package:
#: formal kernels, Fock sums and superposition expectations.
_ABS_TARGET = mp.mpf("1e-40")


def auto_precision(order: int) -> int:
    """Default working precision in bits for sums over a series of this order.

    The positive part of the Fock sum for a contracting response grows at most
    like 2^n, so one bit per order plus generous guard bits suffices; worse
    cancellation shows in the magnitude handed to `_precision_for`, which
    uses this as its floor.
    """
    return max(MIN_PRECISION, int(1.2 * order) + 160)


def _precision_for(magnitude, guard: int, floor: int) -> int:
    """Bits p that keep a rounding error of magnitude * 2^(guard - p) within
    _ABS_TARGET, and never fewer than `floor`."""
    if magnitude * mp.mpf(2) ** (guard - floor) <= _ABS_TARGET:
        return floor
    return guard + int(mp.floor(mp.log(magnitude / _ABS_TARGET, 2))) + 1


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients (c_0, ..., c_L) of a power series truncated at order L."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x):
        """Evaluate the truncating polynomial at x (Horner)."""
        acc = self.coefficients[-1]
        for c in reversed(self.coefficients[:-1]):
            acc = acc * x + c
        return acc


def series_add(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Coefficient-wise sum; the shorter series is padded with zeros."""
    n = max(len(a.coefficients), len(b.coefficients))
    ca = a.coefficients + (0,) * (n - len(a.coefficients))
    cb = b.coefficients + (0,) * (n - len(b.coefficients))
    return PowerSeries(tuple(x + y for x, y in zip(ca, cb)))


def series_mul(a: PowerSeries, b: PowerSeries, order: int | None = None) -> PowerSeries:
    """Cauchy product truncated at `order` (default: the larger input order)."""
    if order is None:
        order = max(a.order, b.order)
    ca, cb = a.coefficients, b.coefficients
    plain = all(isinstance(c, (int, float)) for c in ca + cb)
    accumulate = math.fsum if plain else mp.fsum
    out = []
    for k in range(order + 1):
        lo = max(0, k - b.order)
        hi = min(k, a.order)
        if lo > hi:
            out.append(0.0 if plain else mp.mpf(0))
            continue
        out.append(accumulate(ca[i] * cb[k - i] for i in range(lo, hi + 1)))
    return PowerSeries(tuple(out))


def _exp_neg_lists(f_coeffs, s, order: int):
    """Coefficients of exp(-s*f(x)) from those of f, order `order`, at the
    caller's current mpmath precision."""
    s = mp.mpf(s)
    f0 = mp.mpf(f_coeffs[0]) if len(f_coeffs) > 0 else mp.mpf(0)
    h = [mp.exp(-s * f0)]
    # only nonzero f_j contribute; responses are often very sparse
    nz = [(j, mp.mpf(fj)) for j, fj in enumerate(f_coeffs) if j >= 1 and fj != 0]
    for k in range(1, order + 1):
        acc = mp.mpf(0)
        for j, fj in nz:
            if j > k:
                break
            acc += j * fj * h[k - j]
        h.append(-(s / k) * acc)
    return h


def series_exp_neg(f: PowerSeries, s=1.0, order: int | None = None,
                   prec: int | None = None) -> PowerSeries:
    """Series of h(x) = exp(-s*f(x)), truncated at `order` (default f.order).

    The constant term of f acts as a dark-count-like offset and must be
    non-negative so that h(0) = exp(-s*f(0)) stays a valid no-click
    probability.
    """
    f0 = f.coefficients[0]
    if f0 < 0:
        raise NegativeConstantTerm(
            f"constant term of the response series is {f0}; must be >= 0")
    if order is None:
        order = f.order
    if prec is None:
        prec = auto_precision(order)
    with mp.workprec(prec):
        h = _exp_neg_lists(f.coefficients, s, order)
    return PowerSeries(tuple(h))


def _log_series(p_coeffs, order: int):
    """Series of log(p(x)) for p with p(0) = 1, at the current precision."""
    p = [mp.mpf(c) for c in p_coeffs] + [mp.mpf(0)] * max(0, order + 1 - len(p_coeffs))
    ell = [mp.mpf(0)]
    for k in range(1, order + 1):
        acc = mp.mpf(0)
        for j in range(1, k):
            if k - j < len(p_coeffs) and p[k - j] != 0:
                acc += j * ell[j] * p[k - j]
        ell.append(p[k] - acc / k)
    return ell


def falling_factorial(n: int, k: int) -> int:
    """n(n-1)...(n-k+1) as an exact integer; 0 when k > n, 1 when k = 0."""
    if n < 0 or k < 0:
        raise ValueError("falling_factorial needs non-negative integers")
    return math.perm(n, k)


def _fock_terms(coeffs, n: int) -> list:
    """The terms coeffs[k] * n^(k) of a Fock sum, at the current precision.

    Coefficients beyond index n cannot contribute (the falling factorial
    annihilates them) and are skipped.
    """
    terms = []
    ff = 1
    for k in range(min(len(coeffs) - 1, n) + 1):
        if k:
            ff *= n - k + 1
        terms.append(coeffs[k] * ff)
    return terms


def diag_matrix_element(h: PowerSeries, n: int, prec: int | None = None) -> float:
    """<n| :h(nhat): |n> = sum_k h_k * n(n-1)...(n-k+1) for a Fock state.

    Accumulated with mpmath's exact summation at extended precision.  The
    working precision is chosen from the sum of the absolute terms so that
    the cancellation error stays below 1e-40 absolute; `prec` can only raise
    it.

    The bound covers only errors introduced here: coefficients that were
    already rounded to double precision limit the achievable accuracy to
    their own rounding error times the positive part of the sum, which for
    deep Fock levels is everything.  Feed series produced by series_exp_neg
    (extended-precision coefficients) when the cancellation is severe.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("Fock level must be a non-negative integer")
    if h.order < n:
        raise OrderTooLow(
            f"series order {h.order} cannot resolve Fock level {n}")
    return _fock_average(h.coefficients, [(n, 1)], 4 + (n + 1).bit_length(),
                         auto_precision(n), prec)


def _fock_average(coeffs, levels, guard: int, floor: int, prec: int | None):
    """sum of w * sum_k coeffs[k] n^(k) over the (n, w) levels, as a float, at
    the bits that the sum of its absolute terms calls for (`_precision_for`),
    or at `prec` where that is more.  That sum has no cancellation, so it is
    taken at 53 bits."""
    with mp.workprec(53):
        magnitude = mp.fsum(w * mp.fsum(_fock_terms(coeffs, n), absolute=True)
                            for n, w in levels)
    prec = max(prec or 0, _precision_for(magnitude, guard, floor))
    with mp.workprec(prec):
        return float(mp.fsum(w * mp.fsum(_fock_terms(coeffs, n))
                             for n, w in levels))
