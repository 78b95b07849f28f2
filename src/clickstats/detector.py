"""Forward model: state plus detector bank to exact click-counting statistics.

A bank of N on-off diodes splits the field evenly, so the no-click
probability operator of one diode is the normally ordered exp[-f(nhat/N)],
with f fixed by the detector physics (linear loss, dark counts, multi-photon
absorption, ...).  The probability of exactly k clicks is the binomial
combination

    c_k = C(N,k) sum_j C(k,j) (-1)^j <:exp[-(N-k+j) f(nhat/N)]:>.

For Fock-diagonal states everything reduces to per-level click kernels
t_k(n) -- the probability of k clicks given exactly n photons -- built once
per detector and cached; statistics are then one contraction with the
state's probabilities, c = T p, or T1 P T2^T for two banks.  Physical
responses (linear, affine, a degree-1 polynomial of slope at most one,
n-photon absorption) build t_k(n) in float64 from non-negative terms only,
accurate to (order + N) 2^-52 relative to each entry's size.  Formal
responses (superlinear, or a degree-1 polynomial of slope above one) have
signed kernels, on which the alternating sum above cancels catastrophically
(see the series module); their coefficients are rational, so their kernels
are exact integers over one denominator, contracted on integers with each
float read over its largest (power-of-two) denominator.  Only a constant
term f(0) > 0 rounds a number there, the dark-count factor e^-f(0), which
leaves each kernel within 1e-40.  Coherent superpositions need no kernels:
each expectation is a finite sum over pairs of amplitudes, rounded once,
like the N+1 values of an analytic family (one call), onto a grid of 2^-p,
and the binomial combination is summed on integers.  Every exact statistic
is made from integers over one scale, with Fractions only in `exact`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from .errors import (
    DescriptorError,
    LengthMismatch,
    NegativeResponse,
    PrecisionLoss,
    UnboundedKernel,
)
from .series import (
    _ABS_TARGET,
    PowerSeries,
    _check_exact,
    _check_total,
    _exp_integers,
    _exp_series,
    _float,
    _integers,
    _kept,
    _number,
    _precision_for,
    _reals,
    _weights,
)
from .states import (
    _MAX_CUTOFF,
    CoherentSuperposition,
    JointPhotonDistribution,
    PhotonNumberDistribution,
    _finite,
    _integer,
    _pair_weights,
    _real_part,
)

__all__ = [
    "Linear",
    "Affine",
    "Power",
    "PolynomialSeries",
    "NPhotonAbsorption",
    "DetectorConfig",
    "ClickStatistics",
    "JointClickStatistics",
    "response_series",
    "click_statistics",
    "joint_click_statistics",
    "generating_function",
    "multimode_effective_intensity",
    "detector_from_descriptor",
]

logger = logging.getLogger(__name__)

_CLAMP = 1e-12


# --- response functions -------------------------------------------------------

@dataclass(frozen=True)
class Linear:
    """f(x) = eta * x: ideal diodes with quantum efficiency eta."""

    eta: float

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"efficiency {self.eta!r} outside (0, 1]")

    def evaluate(self, x):
        return self.eta * x


@dataclass(frozen=True)
class Affine:
    """f(x) = eta * x + nu: linear response with a dark-count offset nu."""

    eta: float
    nu: float

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"efficiency {self.eta!r} outside (0, 1]")
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"dark-count rate {self.nu!r} outside [0, inf)")

    def evaluate(self, x):
        return self.eta * x + self.nu


@dataclass(frozen=True)
class Power:
    """f(x) = x^n0: an idealized n0-th order absorber."""

    n0: int

    def __post_init__(self):
        if not isinstance(self.n0, int) or not 1 <= self.n0 <= _MAX_CUTOFF:
            raise ValueError(
                f"power exponent must be an integer in [1, {_MAX_CUTOFF}]")

    def evaluate(self, x):
        return x ** self.n0


@dataclass(frozen=True)
class PolynomialSeries:
    """f given by raw polynomial coefficients (constant term first).

    The constant term acts as a dark-count offset and must be >= 0; the
    polynomial must stay non-negative on the sampled domain (checked on a
    log-spaced grid when kernels are built, plus a leading-coefficient sign
    check here).
    """

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        coeffs = tuple(_reals(coeffs, (len(coeffs),), "coefficients").tolist())
        if not coeffs:
            raise ValueError("polynomial response needs coefficients")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError(f"coefficients {coeffs!r} must be finite")
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs[0] < 0.0:
            raise NegativeResponse(f"f(0) = {coeffs[0]!r} is negative")
        lead = next((c for c in reversed(coeffs) if c != 0.0), 0.0)
        if lead < 0.0:
            raise NegativeResponse("negative leading coefficient: response "
                                   "goes negative for large arguments")

    def evaluate(self, x):
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class NPhotonAbsorption:
    """f(x) = x - log(sum_{j<n0} x^j/j!): diode fires only once n0 photons
    arrive together; n0 = 1 reduces to the ideal linear response."""

    n0: int

    def __post_init__(self):
        if not isinstance(self.n0, int) or not 1 <= self.n0 <= _MAX_CUTOFF:
            raise ValueError(
                f"absorption order must be an integer in [1, {_MAX_CUTOFF}]")

    def evaluate(self, x):
        return x - math.log(sum(x**j / math.factorial(j) for j in range(self.n0)))


RESPONSE_TYPES = (Linear, Affine, Power, PolynomialSeries, NPhotonAbsorption)


def _formal(resp) -> bool:
    """True when the response has signed kernels t_k(n), so that its
    statistics are formal: every response but n-photon absorption and
    f(x) = eta x + nu with eta <= 1 (`_chain_parameters`).  A superlinear f
    gives kernels that outgrow any geometric tail, and a slope above one
    kernels that alternate as (1 - s eta/N)^n; truncated photon-number
    tables cannot be contracted against them, so analytic representations
    take over.
    """
    return (_chain_parameters(resp) is None
            and not isinstance(resp, NPhotonAbsorption))


@dataclass(frozen=True)
class DetectorConfig:
    """A bank of N identical on-off diodes sharing one response function."""

    N: int
    response: object

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError("diode count must be a positive integer")
        if not isinstance(self.response, RESPONSE_TYPES):
            raise TypeError(f"unsupported response {type(self.response).__name__}")


def _check_poly_positive(resp: PolynomialSeries, xmax: float):
    grid = np.geomspace(1e-9, max(xmax, 1e-6), 96)
    for x in grid:
        if resp.evaluate(float(x)) < 0.0:
            raise NegativeResponse(
                f"response dips to {resp.evaluate(float(x))!r} at x = {float(x)!r}")


def _response_weights(resp, N: int, order: int) -> tuple:
    """(f(0), d, steps) of a response on N diodes: the nonzero (j, w_j), 0 <
    j <= order, w_j = j! g_j d^j for the coefficients g_j of f, integers such
    that U_k = k! h_k (d N)^k of exp[-s f(x/N)] are too (`_exp_integers`).
    Polynomial responses are checked and take `_weights`.  n-photon
    absorption takes d = 1 and f' B = B - B' = x^(n0-1)/(n0-1)!, B = sum_(i <
    n0) x^i/i!: sum_(i<=j) C(j-1, i-1) w_i [j - i < n0] = [j = n0]."""
    if isinstance(resp, NPhotonAbsorption):
        n0, w = resp.n0, [0]
        for j in range(1, order + 1):
            w.append((j == n0) - sum(math.comb(j - 1, i - 1) * w[i]
                                     for i in range(max(1, j - n0 + 1), j)))
        return 0.0, 1, [(j, x) for j, x in enumerate(w) if x]
    if isinstance(resp, Power):  # f = x^n0: d = 1, w_n0 = n0!
        n0 = resp.n0
        return 0, 1, [(n0, math.factorial(n0))] if n0 <= order else []
    if isinstance(resp, (Linear, Affine)):
        coeffs = (getattr(resp, "nu", 0.0), resp.eta)
    elif isinstance(resp, PolynomialSeries):
        _check_poly_positive(resp, 10.0 * max(order, 1) / N)
        coeffs = resp.coefficients
    else:
        raise TypeError(f"unsupported response {type(resp).__name__}")
    return (coeffs[0], *_weights(coeffs, order))


def response_series(resp, N: int, s, order: int, prec: int | None = None) -> PowerSeries:
    """Series of exp[-s*f(x/N)] in the photon number x, truncated at `order`.

    Each coefficient is exact but for the factor exp[-s*f(0)] and is rounded
    once to `prec` bits (default `auto_precision(order)`), as in
    `series_exp_neg`; a negative order or an s that is not finite is a
    ValueError."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if N < 1:
        raise ValueError("diode count must be >= 1")
    f0, d, steps = _response_weights(resp, N, order)
    return _exp_series(f0, d * N, steps, s, order, prec)


# --- click statistics containers ----------------------------------------------

_fractions = np.frompyfunc(Fraction, 2, 1)
_floats = np.frompyfunc(_float, 2, 1)


class _Exact:
    """The `exact` field of the statistics and moment containers: the
    values the caller gave, or, where the library set it to ..., reduced
    Fractions made from `_ints` over `_scale` when first read."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the field's default
        exact = obj.__dict__["exact"]
        if exact is ...:
            q = _fractions(obj._ints, obj._scale).tolist()
            exact = tuple(map(tuple, q) if obj._ints.ndim == 2 else q)
            obj.__dict__["exact"] = exact
        return exact

    def __set__(self, obj, value):
        obj.__dict__["exact"] = value


def _read_only(*arrays) -> tuple:
    """The arrays, made read-only, as caches and frozen objects keep them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _validate_probs(stats, Ns: tuple, what: str) -> tuple:
    """The click table `stats.probs` of banks of Ns diodes, an integer N >=
    1 each, read by `_reals` and checked at once, as an array of its shape
    and a flat list: tiny negatives clamped to zero (on a copy), the first
    material one or number beyond float range rejected, the total checked.
    `formal` statistics (responses with signed kernels) are signed by
    nature, so only their total is checked, as `_ints` over `_scale` (read
    here from `exact`, else the floats over their largest denominator, a
    power of two, when not given) rounded once: formal click numbers can
    reach 1e16 and cancel to a sum of one.  Each float given must be its
    `exact` value rounded once."""
    shape = ()
    for N in Ns:
        if not isinstance(N, int) or N < 1:
            raise ValueError("diode count must be a positive integer")
        shape += (N + 1,)
    values = table = _reals(stats.probs, shape, f"{what} probabilities")
    numbers = values.ravel().tolist()
    # a pass at C speed finds the usual table, with nothing to clamp or reject
    if not (all(map(math.isfinite, numbers))
            and (stats.formal or min(numbers) >= 0.0)):
        flat = values.ravel()
        bad = ~np.isfinite(flat) | (flat < (-math.inf if stats.formal
                                            else -_CLAMP))
        stop = int(bad.argmax()) if bad.any() else flat.size
        if not stats.formal:
            for i in np.flatnonzero(flat[:stop] < 0.0).tolist():
                logger.debug("%s: clamping %r to 0", what, numbers[i])
            table = np.where(values < 0.0, 0.0, values)
        if stop < flat.size:
            raise PrecisionLoss(f"{what} probability {numbers[stop]!r} below "
                                f"-{_CLAMP} or beyond float range")
        numbers = table.ravel().tolist()
    if stats._ints is None:
        if stats.exact is None:
            ratios = [x.as_integer_ratio() for x in numbers]
            scale = max([d for _, d in ratios])
            ints = np.array([n * (scale // d) for n, d in ratios], dtype=object)
        else:
            _check_exact(stats.exact, values, "probs")
            ints, scale = _integers(stats.exact)
        object.__setattr__(stats, "_ints", ints.reshape(shape))
        object.__setattr__(stats, "_scale", scale)
    _check_total(_float(sum(stats._ints.ravel().tolist()), stats._scale),
                 stats.norm_slack, f"total of {what} probabilities")
    return table, numbers


@dataclass(frozen=True)
class ClickStatistics:
    """Click-number distribution c_0..c_N of a single bank.

    `exact` carries the values behind `probs` where floats would lose them,
    as Fractions: from the exact kernels of a formal response on a finite
    table, and from no-click values on a grid of 2^-p for superpositions
    and quadrature, made from `_ints` when first read; None on float kernels
    and for estimates.  `_ints` over `_scale` hold the numbers given (for
    estimates the counts over their total) as integers, read once.
    `stderr` carries per-entry standard errors when estimated from counts.
    `norm_slack` is the extra normalization deficit allowed for truncated
    input states (their tail bound).  `formal` marks statistics of a
    response with signed kernels, which are signed in general; only their
    total is constrained.  Each `exact` entry c_k is within exact_error +
    relative_error * |c_k| of the forward model's value, the first taken
    from the quadrature's error estimate for analytic families; both are 0
    for empirical data.
    """

    N: int
    probs: tuple
    exact: tuple | None = _Exact()
    stderr: tuple | None = None
    norm_slack: float = 0.0
    formal: bool = False
    exact_error: float = 0.0
    relative_error: float = 0.0
    _ints: np.ndarray | None = field(default=None, repr=False, compare=False)
    _scale: int = field(default=1, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "probs",
                           tuple(_validate_probs(self, (self.N,), "click")[1]))
        if self.stderr is not None:
            object.__setattr__(self, "stderr", tuple(_reals(
                self.stderr, (self.N + 1,), "click standard errors").tolist()))


@dataclass(frozen=True)
class JointClickStatistics:
    """Joint click table c_{k1,k2} of two banks measured in coincidence;
    `exact` holds rows of Fractions for formal responses, else None."""

    N1: int
    N2: int
    probs: np.ndarray
    exact: tuple | None = _Exact()
    stderr: np.ndarray | None = None
    norm_slack: float = 0.0
    formal: bool = False
    _ints: np.ndarray | None = field(default=None, repr=False, compare=False)
    _scale: int = field(default=1, repr=False, compare=False)

    def __post_init__(self):
        arr = _validate_probs(self, (self.N1, self.N2), "joint click")[0]
        object.__setattr__(self, "probs", _kept(arr, self.probs))
        if self.stderr is not None:
            object.__setattr__(self, "stderr", _kept(_reals(
                self.stderr, arr.shape, "joint click standard errors"), self.stderr))


@lru_cache(maxsize=None)
def _defaults(cls) -> dict:
    """The default of every field of the dataclass `cls`."""
    return {name: f.default for name, f in cls.__dataclass_fields__.items()}


def _as_built(cls, **fields):
    """An instance of the frozen dataclass `cls` from values the library
    has made and checked itself, set without the checks and copies of
    `__post_init__`: every field is set, those not given to their defaults,
    and any other attribute given (`_ints`, `_scale`) alongside.  Only for
    values that pass those checks unchanged, such as counts over their
    exact total (`sampler.estimate_statistics`), a draw's own counts, or
    moments and matrices made from checked statistics."""
    built = object.__new__(cls)
    vars(built).update(_defaults(cls), **fields)
    return built


def _lowest(ints, scale: int) -> tuple:
    """Integers over a scale, both divided by their greatest common divisor:
    the scale is then the lcm of the reduced denominators, which keeps the
    integers of the moments and minors made from them short."""
    g = math.gcd(scale, *ints.flat)
    return ints // g, scale // g


def _exact(cls, n: np.ndarray, scale: int, **fields):
    """Statistics `cls` of the exact values n / scale, n Python integers:
    reduced by `_lowest`, as `_integers` reads `exact`, each float rounded
    once, and `exact` their reduced Fractions (`_Exact`)."""
    n, scale = _lowest(n, scale)
    return cls(probs=_floats(n, scale).astype(float), exact=..., _ints=n,
               _scale=scale, **fields)


# --- kernel tables --------------------------------------------------------------

def _bucket(order: int) -> int:
    """Round the series order up so sweeps with drifting cutoffs share tables."""
    if order <= 128:
        return 32 * math.ceil(max(order, 1) / 32)
    if order <= 512:
        return 64 * math.ceil(order / 64)
    return 128 * math.ceil(order / 128)


def _chain_parameters(resp):
    """(eta, nu) when f(x) = eta x + nu with 0 <= eta <= 1, else None."""
    if isinstance(resp, (Linear, Affine)):
        return resp.eta, getattr(resp, "nu", 0.0)
    if isinstance(resp, Power) and resp.n0 == 1:
        return 1.0, 0.0
    if isinstance(resp, PolynomialSeries) and not any(resp.coefficients[2:]):
        nu, eta = (resp.coefficients + (0.0,))[:2]
        return (eta, nu) if eta <= 1.0 else None
    return None


@lru_cache(maxsize=64)
def _positive_kernels(det: DetectorConfig, order: int) -> np.ndarray:
    """Read-only float64 T[k, n], n = 0..order, from non-negative terms."""
    chain = _chain_parameters(det.response)
    T = (_occupancy_chain(det.N, *chain, order + 1) if chain else
         _threshold_occupancy(det.N, det.response.n0, order + 1))
    T.setflags(write=False)
    return T


def _occupancy_chain(N: int, eta: float, nu: float, L: int) -> np.ndarray:
    """f(x) = eta x + nu: dark counts fire each diode with 1 - e^-nu, so the
    0-photon column is Binomial(N, 1 - e^-nu); each photon then lands, with
    probability eta, on a uniformly chosen diode and fires it if still dark,
    moving j fired diodes to j + 1 with probability eta (N - j)/N."""
    T = np.zeros((N + 1, L))
    T[0, 0] = 1.0
    dark = (math.exp(-nu), -math.expm1(-nu))
    for d in range(N):
        T[:d + 2, 0] = np.convolve(T[:d + 1, 0], dark)
    j = np.arange(N + 1)
    stay = ((1.0 - eta) * (N - j) + j) / N  # no cancellation as eta -> 1
    move = eta * (N - j[:-1]) / N
    for n in range(1, L):
        T[:, n] = T[:, n - 1] * stay
        T[1:, n] += T[:-1, n - 1] * move
    return T


# most entries (16 MB) in one block of rows of `_threshold_occupancy`'s
# transition table: tables of up to 1448 levels are a single block
_BLOCK_ENTRIES = 1 << 21


def _threshold_occupancy(N: int, n0: int, L: int) -> np.ndarray:
    """Diodes that fire on n0 or more photons, landing uniformly: t_k(n) =
    C(N,k) n!/N^n [x^n] A^k B^(N-k), B = sum_{j<n0} x^j/j!, A = e^x - B, as
    a binomial convolution over diodes of coefficients scaled to
    probabilities, all at most one: F[k, m] is the chance that k of the
    first d diodes fire when m photons land on them.  The L x L transition
    table G is built and contracted in blocks of rows, each at most
    _BLOCK_ENTRIES entries and as wide as its last row's nonzero part."""
    F = np.zeros((N + 1, L))
    F[0, 0] = 1.0
    rows = max(1, _BLOCK_ENTRIES // L)
    for d in range(1, N + 1):
        prev, F = F, np.empty((N + 1, L))
        # g = G[m], G[m, i] = C(m, i) (d-1)^i/d^m: i of m photons miss diode d
        g = np.zeros(L)
        g[0] = 1.0
        for a in range(0, L, rows):
            b = min(a + rows, L)
            G = np.zeros((b - a, b))
            for m in range(a, b):
                if m:  # only g[:m] is nonzero before this step
                    g[1:m + 1] += (d - 1) * g[:m]
                    g[:m + 1] /= d
                G[m - a, :m + 1] = g[:m + 1]
            fire = np.tril(G, a - n0)  # diode d took n0 or more
            G -= fire
            F[:, a:b] = prev[:, :b] @ G.T
            F[1:, a:b] += prev[:-1, :b] @ fire.T
    return F


@lru_cache(maxsize=64)
def _assembly(N: int) -> tuple:
    """B[k][s] = C(N,k) C(k,j) (-1)^j for s = N-k+j, else 0: c_k = sum_s
    B[k][s] E[s] from the no-click expectations E[s] = <:exp[-s f(nhat/N)]:>
    of a state, and t_k(n) from their values on Fock level n.  Cached, with
    rows as tuples so that no caller can change them."""
    return tuple(tuple(math.comb(N, k) * math.comb(k, s - N + k)
                       * (-1) ** (s - N + k) if s >= N - k else 0
                       for s in range(N + 1)) for k in range(N + 1))


@lru_cache(maxsize=64)
def _formal_kernels(det: DetectorConfig, order: int, prec: int | None):
    """Exact kernels of a formal response f: (T, D, error), T/D the kernels
    within `error` (0 unless f(0) > 0), T read-only integers, columns
    summing to D.  The coefficients h_k of exp[-s (f(x/N) - f(0))] give
    integers U_k = k! h_k (d N)^k (`_response_weights`, `_exp_integers`),
    and so do the kernels over (d N)^order.  Only f(0) > 0 rounds a number
    (`_dark_offset`)."""
    N = det.N
    f0, d, steps = _response_weights(det.response, N, order)
    scale = [(d * N) ** (order - k) for k in range(order + 1)]
    V = [[u * w for u, w in zip(_exp_integers(steps, s, order), scale)]
         for s in range(N + 1)]
    binom = [[math.comb(n, k) for n in range(order + 1)] for k in range(order + 1)]
    T = np.array(_assembly(N), dtype=object) @ np.array(V, dtype=object) @ binom
    T, D = _dark_offset(T, scale[0], f0, prec) if f0 else (T, scale[0])
    T.setflags(write=False)
    return T, D, float(_ABS_TARGET) if f0 else 0.0


def _dark_offset(T, D, f0, prec: int | None):
    """(T', D'), T'/D' the kernels of f0 + g from those of g, T/D: dark counts
    fire each diode with 1 - q, q = e^-f0, so t_k(n) = sum_i t^g_i(n)
    C(N-i, k-i) (1-q)^(k-i) q^(N-k).  Those weights move by at most 2N |dq|
    in sum, so q on a grid of 2^-p, p from max_n sum_i |t^g_i(n)| and
    `prec` a floor, leaves each t_k(n) within 1e-40."""
    N = len(T) - 1
    magnitude = mp.mpf(max(sum(abs(t) for t in col) for col in T.T)) / D
    p = max(prec or 0, _precision_for(magnitude, 2 + N.bit_length(), 53))
    with mp.workprec(p + 8):
        Q = _on_grid(mp.exp(-mp.mpf(f0)), p)
    W = [[math.comb(N - i, k - i) * ((1 << p) - Q) ** (k - i) * Q ** (N - k)
          << p * i if k >= i else 0 for i in range(N + 1)] for k in range(N + 1)]
    return np.array(W, dtype=object) @ T, D << p * N


# --- forward model ---------------------------------------------------------------

def click_statistics(state, det: DetectorConfig,
                     prec: int | None = None) -> ClickStatistics:
    """Exact click-counting statistics of one bank for the given state."""
    formal = _formal(det.response)
    if isinstance(state, CoherentSuperposition):
        return _click_from_E(det.N, _superposition_E(state, det, prec), prec,
                             formal)
    if not isinstance(state, PhotonNumberDistribution):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if formal and state.tail_bound > 0.0:
        # truncated table of an infinite-tail state: the kernel sum does not
        # converge, so fall back to the family's exact representation
        if state.analytic is None:
            raise UnboundedKernel(
                f"{type(det.response).__name__} response on a truncated "
                "photon-number distribution with no analytic family tag")
        E, error = _analytic_E(state.analytic, det, prec)
        return _click_from_E(det.N, E, prec, formal=True, e_error=error)
    order, p = _bucket(state.cutoff), state._array
    if not formal:
        T = _positive_kernels(det, order)[:, :len(p)]
        return ClickStatistics(det.N, T @ p, norm_slack=state.tail_bound,
                               relative_error=(order + det.N) * 2.0 ** -52)
    T, D, error = _formal_kernels(det, order, prec)
    keep = np.flatnonzero(p)  # an exact sum may skip the zero p_n
    P, scale = _integers(p[keep])
    return _exact(ClickStatistics, T[:, keep] @ P, D * scale, N=det.N,
                  formal=True, exact_error=error)


def _click_from_E(N, E, prec, formal, e_error=float(_ABS_TARGET)):
    """c_k = sum_s B[k][s] E[s] (`_assembly`) from the no-click expectations
    E[s], each within `e_error` and rounded once to the grid 2^-p, p the
    least that adds at most 2^-32 of that error (`prec` a floor); the sums
    are then taken on integers, and c_k is within C(N,k) 2^k (e_error +
    2^-p).  Values far below the grid cost nothing to round."""
    p = max(prec or 0, 33 - math.frexp(e_error)[1], 0)
    n = [_on_grid(e, p) for e in E]
    c = [sum(b * x for b, x in zip(row, n) if b) for row in _assembly(N)]
    error = max(math.comb(N, k) * 2 ** k for k in range(N + 1)) * (
        e_error + 2.0 ** -p)
    return _exact(ClickStatistics, np.array(c, dtype=object), 1 << p, N=N,
                  formal=formal, exact_error=error)


def _on_grid(e, p: int) -> int:
    """The mpf e times 2^p rounded to the nearest integer, exactly and at
    once however far below the grid its exponent lies."""
    if not mp.isfinite(e):
        raise PrecisionLoss(f"no-click value {e} is not finite")
    return int(mp.nint(mp.ldexp(e, p), prec=0))


def _no_click_factor(resp, x):
    """(w, W, F) at complex x: w = exp[-f(x)], W >= |w| and F the sum of the
    absolute terms of the exponent, so that w at p bits errs by a few W (F +
    n0) 2^-p.  n-photon absorption gives w = e^-x B(x), B = sum_{j<n0}
    x^j/j!, through no log, and W = |e^-x| B(|x|), as B(x) may cancel.
    Both stop at one j >= 2|x| (terms halve from there) once the rest of
    B(|x|), which bounds B(x)'s, cannot move it at the working precision."""
    r = abs(x)
    if isinstance(resp, NPhotonAbsorption):
        e = mp.exp(-x)
        b = B = t = T = mp.mpf(1)  # B(x), B(|x|) and their terms x^j/j!
        for j in range(1, resp.n0):
            if j >= 2 * r and 2 * T < mp.eps * B:
                break
            t, T = t * x / j, T * r / j
            b, B = b + t, B + T
        return e * b, abs(e) * B, r + resp.n0
    w = mp.exp(-resp.evaluate(x))
    # the responses other than polynomials have non-negative coefficients
    coeffs = getattr(resp, "coefficients", None)
    return w, abs(w), (resp.evaluate(r) if coeffs is None else
                       mp.fsum(abs(c) * r ** j for j, c in enumerate(coeffs)))


def _superposition_E(state: CoherentSuperposition, det: DetectorConfig,
                     prec: int | None):
    """<:exp[-s f(nhat/N)]:>, s = 0..N, on a coherent superposition, as the
    finite sums E_s = sum_ij g_ij w_ij^s, g_ij = conj(c_i) c_j <a_i|a_j>, w_ij
    = exp[-f(conj(a_i) a_j/N)], at bits from max_s sum_ij |g_ij| W_ij^s with
    guard bits for the exponents' sizes N F (`_no_click_factor`) and 2 max
    |a_i|^2; `prec` is a floor.  A bound beyond float range is rejected."""
    N, resp = det.N, det.response
    if isinstance(resp, PolynomialSeries):
        _check_poly_positive(resp, 10.0 * max(1.0, state.max_intensity) / N)
    with mp.workprec(53):
        terms = [(g, *_no_click_factor(resp, z / N))
                 for g, z in _pair_weights(state.terms)]
        magnitude = max(mp.fsum(abs(g) * W ** s for g, _, W, _ in terms)
                        for s in range(N + 1))
        size = N * max(t[3] for t in terms) + 2 * state.max_intensity
    if float(magnitude) == math.inf:
        raise PrecisionLoss(f"superposition terms reach "
                            f"{mp.nstr(magnitude, 3)}, beyond float range")
    guard = 12 + int(mp.log(size + 1, 2))
    with mp.workprec(max(prec or 0, _precision_for(magnitude, guard, 240))):
        terms = [(g, _no_click_factor(resp, z / N)[0])
                 for g, z in _pair_weights(state.terms)]
        return [_real_part(mp.fsum(g * w ** s for g, w in terms))
                for s in range(N + 1)]


@lru_cache(maxsize=256)
def _analytic_E(tag, det: DetectorConfig, prec: int | None):
    """(E, error): the no-click values E_s = <:exp[-s f(nhat/N)]:>, s =
    0..N, from the family's exact representation, and the largest error
    they are known to; the response is checked once for all of them.

    Coherent states evaluate the response in closed form; thermal and
    single-photon-added thermal states integrate it against their known
    quasiprobability weight on intensities,

        thermal: w(x) = exp(-x/nbar)/nbar,
        spats:   w(x) = exp(-x/nbar) ((1+nbar) x - nbar)/nbar^3,

    both of which decay fast enough for any response.  The error is the
    quadrature's accepted estimate, scaled like the value, plus four units
    of the working precision in the value, which that estimate leaves out.
    """
    kind, param = tag
    N, resp = det.N, det.response
    if isinstance(resp, PolynomialSeries):
        _check_poly_positive(resp, 10.0 * max(1.0, float(param)) / N)
    if kind not in ("coherent", "thermal", "spats"):
        raise UnboundedKernel(f"no analytic representation for family {kind!r}")
    with mp.workprec(max(prec or 0, 220)):
        if kind == "coherent":
            v = resp.evaluate(mp.mpf(param) / N)
            values, scale = [(mp.exp(-s * v), 0) for s in range(N + 1)], 1
        else:
            nb = mp.mpf(param)
            w = ((lambda x: 1) if kind == "thermal"
                 else (lambda x: (1 + nb) * x - nb))
            values = [mp.quad(lambda x: w(x) * mp.exp(
                -x / nb - s * resp.evaluate(x / N)), [0, nb, 8 * nb, mp.inf],
                maxdegree=10, error=True) for s in range(N + 1)]
            scale = nb if kind == "thermal" else nb ** 3
        for s, (val, err) in enumerate(values):
            if err > mp.mpf("1e-20") * max(1, abs(val)):
                raise PrecisionLoss(f"quadrature for E({s}) stalled at "
                                    f"error {float(err)!r}")
        # the estimate leaves out the rounding of the value itself
        return (tuple(val / scale for val, _ in values),
                max(float((err + 4 * mp.eps * abs(val)) / scale)
                    for val, err in values))


def joint_click_statistics(state: JointPhotonDistribution, det1: DetectorConfig,
                           det2: DetectorConfig,
                           prec: int | None = None) -> JointClickStatistics:
    """Joint click statistics of two banks on a two-mode state."""
    if not isinstance(state, JointPhotonDistribution):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    formal = _formal(det1.response) or _formal(det2.response)
    if formal and state.tail_bound > 0.0:
        raise UnboundedKernel(
            "formal response on a truncated two-mode distribution")
    c1, c2 = state.cutoffs
    (T1, D1), (T2, D2) = (
        _formal_kernels(d, _bucket(c), prec)[:2] if _formal(d.response)
        else (_positive_kernels(d, _bucket(c)), 1)
        for d, c in ((det1, c1), (det2, c2)))
    T1, T2, P = T1[:, :c1 + 1], T2[:, :c2 + 1], state._table
    if formal:  # every factor as integers over a scale
        (T1, L1), (T2, L2), (P, L) = map(_integers, (T1, T2, P))
    # T1 P T2^T, or (T1 * p) T2^T on the diagonal p that squeezed vacuum keeps
    table = (T1 * P) @ T2.T if P.ndim == 1 else T1 @ P @ T2.T
    if not formal:
        return JointClickStatistics(det1.N, det2.N, table,
                                    norm_slack=state.tail_bound)
    return _exact(JointClickStatistics, table, D1 * L1 * L * D2 * L2,
                  N1=det1.N, N2=det2.N, formal=True)


def generating_function(stats: ClickStatistics, z) -> float:
    """g(z) = sum_k c_k z^k."""
    acc = 0.0
    for c in reversed(stats.probs):
        acc = acc * z + c
    return acc


def multimode_effective_intensity(etas, intensities) -> float:
    """Effective single-mode intensity eta*|beta|^2 = sum_mu eta_mu |alpha_mu|^2.

    A bank of on-off diodes cannot distinguish a multimode coherent input
    from a single mode carrying this weighted intensity.
    """
    etas = [_number(e, "efficiency") for e in etas]
    intensities = [_number(i, "intensity") for i in intensities]
    if len(etas) != len(intensities):
        raise LengthMismatch(
            f"{len(etas)} efficiencies vs {len(intensities)} intensities")
    if any(i < 0.0 for i in intensities):
        raise ValueError("intensities must be >= 0")
    return math.fsum(e * i for e, i in zip(etas, intensities))


def detector_from_descriptor(desc: dict) -> DetectorConfig:
    """Build a DetectorConfig from a JSON-style descriptor."""
    if not isinstance(desc, dict):
        raise DescriptorError("detector descriptor must be a JSON object")
    try:
        N = _integer(desc["N"], "N")
        r = desc["response"]
        kind = r.get("kind") if isinstance(r, dict) else None
        if kind == "linear":
            resp = Linear(_finite(r["eta"], "eta"))
        elif kind == "affine":
            resp = Affine(_finite(r["eta"], "eta"), _finite(r["nu"], "nu"))
        elif kind == "power":
            resp = Power(_integer(r["n0"], "n0"))
        elif kind == "poly":
            resp = PolynomialSeries(tuple(_finite(c, "coefficient")
                                          for c in r["coefficients"]))
        elif kind == "nabs":
            resp = NPhotonAbsorption(_integer(r["n0"], "n0"))
        else:
            raise DescriptorError(f"unknown response kind {kind!r}")
        return DetectorConfig(N, resp)
    except KeyError as exc:
        raise DescriptorError(f"detector descriptor missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DescriptorError(f"bad detector parameter: {exc}") from exc
