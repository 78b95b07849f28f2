"""Truncated power series, the series of exp(-s f), and Fock sums on them.

Everything downstream reduces to one kind of number: the expectation value of
a normally ordered operator function on a Fock state,

    <n| :h(nhat): |n> = sum_k h_k * n(n-1)...(n-k+1),

where h_k are the series coefficients of h.  The falling factorials grow like
n! while the h_k of interest (coefficients of exp[-s*f(x/N)]) alternate in
sign, so the terms cancel almost completely: for a linear response the sum
collapses from magnitude ~(1+g)^n down to (1-g)^n.  Double precision loses
every digit of that well before n = 60, so no such number is summed at a
precision chosen in advance.  The series of exp(-s f) comes from one integer
recurrence (`_exp_integers`, which the detector's formal kernels run too):
read as the dyadic rationals they are, f and s give exact integers U_k = k!
h_k D^k, and each h_k, exact but for the factor exp(-s f(0)), is rounded
once.  A Fock sum is taken on integers over the largest denominators of its
coefficients and weights (`_integers`) and rounded once to a float.

mpmath precision remains where an irrational number cancels: the dark-count
factor of formal kernels and coherent superpositions, whose bits
`_precision_for` takes from a magnitude that bounds the rounding error.
mpmath keeps it in one process-global context, which `mp.workprec` changes
for a block, so those sums are not thread-safe.

Conventions: a series of order L stores coefficients c_0..c_L; arithmetic
truncates above the requested order and never wraps.  Coefficients may be
Python floats, ints, or mpmath values; constructors of high-precision series
return mpmath coefficients, which survive round-trips through the arithmetic
here without loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import mpmath as mp
import numpy as np
from mpmath.libmp import from_man_exp

from .errors import NegativeConstantTerm, NormalizationViolation, OrderTooLow

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
#: for the alternating sums; 120 bits covers every small-order case with a
#: wide margin.
MIN_PRECISION = 120

#: Absolute error target for every extended-precision sum in the package:
#: the dark-count factor of formal kernels and superposition expectations.
_ABS_TARGET = mp.mpf("1e-40")


def auto_precision(order: int) -> int:
    """Default bits for the coefficients of a series of this order: those
    of `series_exp_neg` and `response_series`, each rounded once, and the
    working precision of an expectation on a coherent superposition.

    The positive part of a Fock sum for a contracting response grows at most
    like 2^n, so one bit per order plus generous guard bits keeps the
    rounding of the coefficients far below its result.  Fock sums themselves
    are exact and take no precision.
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


def _ratio(x) -> tuple:
    """(numerator, denominator) of a float, an integer or a Fraction
    (`as_integer_ratio`), or of an mpf, read from its sign, mantissa and
    exponent."""
    try:
        return x.as_integer_ratio()
    except AttributeError:
        sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise ValueError(f"cannot convert {x} to a rational")
    man = -int(man) if sign else int(man)
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def _dyadic(x, what: str) -> tuple:
    """_ratio(x) of a finite float, integer or mpf (a power-of-two
    denominator), else a ValueError that names `what`."""
    try:
        m, q = _ratio(x)
        if not q & (q - 1):
            return m, q
    except (AttributeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} is {x!r}, not a finite float, integer or mpf")


def _integers(values) -> tuple:
    """(n, L): numbers given as floats, mpf, integers or Fractions, as
    Python integers n = value * L over the lcm L of their denominators (a
    power of two for floats and mpf)."""
    a = np.asarray(values, dtype=object)
    pairs = [_ratio(x) for x in a.flat]
    scale = math.lcm(*{d for _, d in pairs})
    return np.array([n * (scale // d) for n, d in pairs],
                    dtype=object).reshape(a.shape), scale


def _reals(values, shape: tuple, what: str) -> np.ndarray:
    """`values`, a table of exactly `shape`, as a float array, each entry
    read as math.isfinite reads it: any real number (float, integer, bool,
    Fraction, mpf or numpy scalar) is taken, and a string, None or complex
    number, also inside a numpy array, is a TypeError.  Another shape is a
    ValueError that names `what`.  A float64 array comes back as given."""
    try:
        a = np.asarray(values)
    except ValueError:  # ragged: each row is then an entry
        a = np.asarray(values, dtype=object)
    if a.shape != shape:
        raise ValueError(f"{what}: expected shape {shape}, got {a.shape}")
    if a.dtype.kind in "biuf":
        return a.astype(float, copy=False)
    entries = a.ravel().tolist()
    for x in entries:  # numpy's complex scalars would read as their real part
        if isinstance(x, np.complexfloating):
            raise TypeError(f"must be real number, not {type(x).__name__}")
    return np.array(list(map(math.ldexp, entries, repeat(0))),
                    dtype=float).reshape(shape)


def _kept(a: np.ndarray, given) -> np.ndarray:
    """The array `a` that `_reals` read from `given`, read-only and never
    the caller's memory: copied when it is `given` itself or a view."""
    if a is given or a.base is not None:
        a = a.copy()
    a.setflags(write=False)
    return a


#: Distance from one allowed to every total of a table, beyond its slack
_NORM_TOL = 1e-12


def _check_total(total, slack, what: str) -> None:
    """The total `what` is one within _NORM_TOL + `slack`; NaN never is."""
    if not abs(total - 1.0) <= _NORM_TOL + slack:
        raise NormalizationViolation(f"{what} is {float(total)!r}, not 1 "
                                     f"(allowed slack {_NORM_TOL + slack:.3e})")


def _check_tail(tail, what: str) -> float:
    """A photon table's tail bound, a finite number >= 0, as a float."""
    if not 0.0 <= tail < math.inf:
        raise ValueError(f"tail bound of the {what} is {tail!r}, "
                         "not a finite number >= 0")
    return float(tail)


def _check_exact(exact, values: np.ndarray, what: str) -> None:
    """A caller's `exact`, unless None, rounds to the floats `values`."""
    if exact is None:
        return
    rounded = _reals(exact, values.shape, "exact")
    wrong = np.argwhere(rounded != values)
    if wrong.size:
        i = tuple(wrong[0].tolist())
        raise ValueError(f"{what}{list(i)} is {float(values[i])!r}, but "
                         f"exact rounds to {float(rounded[i])!r}")


def _number(value, what: str, kind=float):
    """kind(value), float or complex, but a string or bytes is refused."""
    if isinstance(value, (str, bytes, bytearray, memoryview)):
        raise TypeError(f"{what} must be a number, not {type(value).__name__}")
    return kind(value)


def _float(n: int, d: int) -> float:
    """n / d rounded once, or a signed infinity beyond float range (rejected)."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _weights(coeffs, order: int) -> tuple:
    """(d, steps) for f with the coefficients g_j, read by `_dyadic`: d the
    least power of two that makes every g_j d^j, j >= 1, an integer, and
    steps the (j, w_j), 0 < j <= order, with w_j = j! g_j d^j nonzero."""
    ratios = [_dyadic(c, f"coefficient {j} of f") for j, c in enumerate(coeffs)]
    d = 1 << max((math.ceil((q.bit_length() - 1) / j)
                  for j, (m, q) in enumerate(ratios) if j and m), default=0)
    return d, [(j, math.factorial(j) * (m * d ** j // q))
               for j, (m, q) in enumerate(ratios[:order + 1]) if j and m]


def _exp_integers(steps, s: int, order: int) -> list:
    """U_0..U_order, U_k = k! h_k D^k for the coefficients h_k of
    exp[-s (f(x) - f(0))], from the (j, w_j) steps of f, w_j = j! g_j D^j,
    and an integer s: U_k = -s sum_j C(k-1, j-1) w_j U_(k-j), each step's
    binomial carried from k - 1 as C(k-2, j-1) (k-1) / (k-j), 0 before k = j."""
    U, binom = [1], [0] * len(steps)
    for k in range(1, order + 1):
        binom = [c * (k - 1) // (k - j) if j < k else int(j == k)
                 for (j, _), c in zip(steps, binom)]
        U.append(-s * sum(c * w * U[k - j]
                          for (j, w), c in zip(steps, binom) if c))
    return U


def _rounded(n: int, d: int, prec: int):
    """n/d, d > 0, rounded once to the nearest mpf of `prec` bits: mpmath
    rounds its quotient, taken by integer shift and division to prec + 2 or
    3 bits, and a sticky bit for the rest; n and d never become mpf."""
    t = (d & -d).bit_length() - 1  # only the odd part of d is divided
    d >>= t
    a, shift = abs(n), prec + 2 - n.bit_length() + d.bit_length()
    q, r = divmod(a << shift if shift >= 0 else a >> -shift, d)
    man = q << 1 | bool(r or shift < 0 and a & ((1 << -shift) - 1))
    return mp.make_mpf(from_man_exp(-man if n < 0 else man, -shift - 1 - t,
                                    prec, "n"))


def _exp_series(f0, D: int, steps, s, order: int, prec) -> PowerSeries:
    """Series of exp(-s f(x)) through `order`, f = f0 + sum_j w_j x^j /
    (j! D^j) from the (j, w_j) steps: with s = a/b, h_k = e^(-s f0) U_k /
    (k! (D b)^k) for the U_k of `_exp_integers` on a and the weights w_j
    b^(j-1), exact but for e^(-s f0), rounded once to `prec` bits (default
    `auto_precision(order)`)."""
    prec = auto_precision(order) if prec is None else prec
    a, b = _dyadic(s, "s")
    U = _exp_integers([(j, w * b ** (j - 1)) for j, w in steps], a, order)
    e, den = 1, 1  # e^(-s f0), to 10 bits beyond the rounding, as a ratio
    m, q = _ratio(f0)
    if m:
        with mp.workprec(prec + 10):
            x = from_man_exp(-a * m, 1 - (b * q).bit_length())
            e, den = _ratio(mp.exp(mp.make_mpf(x)))
    h = []
    for k, u in enumerate(U):
        if k:
            den *= k * D * b
        h.append(_rounded(u * e, den, prec))
    return PowerSeries(tuple(h))


def series_exp_neg(f: PowerSeries, s=1.0, order: int | None = None,
                   prec: int | None = None) -> PowerSeries:
    """Series of h(x) = exp(-s*f(x)), truncated at `order` (default f.order).

    The constant term of f acts as a dark-count-like offset and must be
    non-negative so that h(0) = exp(-s*f(0)) stays a valid no-click
    probability.  f's coefficients and s are read as the dyadic rationals
    of their floats, integers or mpf (`_exp_series`); a negative order, or a
    coefficient or s that is not finite, is a ValueError.
    """
    if order is None:
        order = f.order
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    f0 = f.coefficients[0]
    if f0 < 0:
        raise NegativeConstantTerm(
            f"constant term of the response series is {f0}; must be >= 0")
    return _exp_series(f0, *_weights(f.coefficients, order), s, order, prec)


def falling_factorial(n: int, k: int) -> int:
    """n(n-1)...(n-k+1) as an exact integer; 0 when k > n, 1 when k = 0."""
    if n < 0 or k < 0:
        raise ValueError("falling_factorial needs non-negative integers")
    return math.perm(n, k)


def diag_matrix_element(h: PowerSeries, n: int, prec: int | None = None) -> float:
    """<n| :h(nhat): |n> = sum_k h_k * n(n-1)...(n-k+1) for a Fock state.

    The exact sum of the coefficients as given, rounded once to a float
    (`_fock_average`); `prec` is kept for callers and no longer changes it.

    Only the coefficients limit the accuracy: ones already rounded to double
    precision err by their own rounding error times the positive part of
    the sum, which for deep Fock levels is everything.  Feed series produced
    by series_exp_neg (extended-precision coefficients) when the
    cancellation is severe.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("Fock level must be a non-negative integer")
    if h.order < n:
        raise OrderTooLow(
            f"series order {h.order} cannot resolve Fock level {n}")
    return _fock_average(h.coefficients, [(n, 1)])


def _fock_average(coeffs, levels) -> float:
    """sum of w * sum_k coeffs[k] n^(k) over the (n, w) levels, exactly: the
    coefficients through the top level and the weights are read as integers
    over their largest denominators, each inner sum is taken by Horner's rule
    on n^(k) = n^(k-1) (n - k + 1), and the total is divided once."""
    top = max(n for n, _ in levels)
    C, c_scale = _integers(coeffs[:top + 1])
    C = C.tolist()
    W, w_scale = _integers([w for _, w in levels])
    total = 0
    for (n, _), w in zip(levels, W.tolist()):
        acc = 0
        for k in range(n, -1, -1):
            acc = acc * (n - k) + C[k]
        total += w * acc
    return _float(total, c_scale * w_scale)
