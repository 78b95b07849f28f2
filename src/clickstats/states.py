"""Quantum states of light, reduced to what click counting can see.

Every observable in this package is a normally ordered function of the photon
number (single mode) or of two photon numbers (joint).  Two representations
therefore cover every supported state exactly:

* ``PhotonNumberDistribution`` -- phase-insensitive states given by their
  Fock-basis probabilities p_n, truncated with an explicit analytic tail
  bound.  Normally ordered expectations reduce to sums of diagonal matrix
  elements.
* ``CoherentSuperposition`` -- finite superpositions of coherent states.
  Normally ordered functions act on coherent amplitudes directly:
  <a| :h(nhat): |b> = h(conj(a)*b) <a|b>, so expectations close over the
  cross-amplitude matrix without any Fock sum.

Truncation is never silent: constructors take a tail tolerance (default
1e-14), stop once the analytic tail estimate is below it, and store the
missing mass (or, for coherent states, a bound on it) so downstream
normalization checks can account for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import (
    DescriptorError,
    NonHermitianResult,
    NormalizationViolation,
    OrderTooLow,
    SqueezingOutOfRange,
    ZeroAmplitude,
    ZeroMeanPhotonNumber,
)
from .series import (MIN_PRECISION, PowerSeries, _fock_average, _kept, _reals,
                     auto_precision)

__all__ = [
    "PhotonNumberDistribution",
    "CoherentSuperposition",
    "JointPhotonDistribution",
    "coherent_distribution",
    "thermal_distribution",
    "spats_distribution",
    "fock_distribution",
    "odd_coherent",
    "tmsv_joint",
    "product_joint",
    "mixture_joint",
    "nom_expectation",
    "mandel_q",
    "state_from_descriptor",
]

DEFAULT_TAIL_TOL = 1e-14

_NORM_SLACK = 1e-12
_MAX_CUTOFF = 100000


@dataclass(frozen=True)
class PhotonNumberDistribution:
    """Fock-diagonal state: probs[n] = p_n for n = 0..cutoff.

    tail_bound is an upper bound on the probability mass beyond the cutoff;
    constructors record the missing mass, or a bound on it, so that
    sum(probs) + tail_bound stays within 1e-12 of one.

    `analytic` optionally names the untruncated family behind the numbers,
    as a ("family", parameter) pair.  Forward models that cannot work from a
    truncated table (responses growing faster than linearly) fall back to
    closed-form representations keyed by this tag.
    """

    probs: tuple
    tail_bound: float = 0.0
    analytic: tuple | None = None

    def __post_init__(self):
        probs = tuple(self.probs)
        array = _reals(probs, (len(probs),), "photon-number probabilities")
        probs = tuple(array.tolist())
        if not probs:
            raise ValueError("distribution needs at least the vacuum entry")
        if (array < 0.0).any():
            raise ValueError("negative probability in photon-number distribution")
        if self.tail_bound < 0.0:
            raise ValueError("tail bound must be non-negative")
        total = math.fsum(probs) + self.tail_bound
        if not abs(total - 1.0) <= _NORM_SLACK:
            raise NormalizationViolation(
                f"probabilities plus tail sum to {total!r}, not 1")
        array.setflags(write=False)
        object.__setattr__(self, "_array", array)  # for the contraction
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "tail_bound", float(self.tail_bound))

    @property
    def cutoff(self) -> int:
        return len(self.probs) - 1


@dataclass(frozen=True)
class CoherentSuperposition:
    """Finite superposition sum_i c_i |alpha_i> given as (c_i, alpha_i) pairs."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((complex(c), complex(a)) for c, a in self.terms)
        if not terms:
            raise ValueError("superposition needs at least one term")
        object.__setattr__(self, "terms", terms)
        norm = self.overlap_norm()
        if not abs(norm - 1.0) <= _NORM_SLACK:
            raise NormalizationViolation(
                f"superposition norm is {norm!r}, not 1")

    def overlap_norm(self) -> float:
        """sum_ij conj(c_i) c_j <a_i|a_j>, at bits that hold it to 2^-60
        although it cancels from (sum_i |c_i|)^2 at small amplitudes."""
        size = (sum(abs(c) for c, _ in self.terms) ** 2
                * (2 * self.max_intensity + 4))
        with mp.workprec(64 + math.ceil(math.log2(max(size, 1)))):
            return float(mp.re(mp.fsum(g for g, _ in _pair_weights(self.terms))))

    @property
    def max_intensity(self) -> float:
        return max(abs(a) ** 2 for _, a in self.terms)


@dataclass(frozen=True)
class JointPhotonDistribution:
    """Two-mode state, diagonal in each mode's photon number:
    probs[n1, n2] = p_{n1,n2}, read-only.

    A table passed to the constructor is copied, so its caller cannot
    change the state afterwards.  The library's own builders hand their
    fresh arrays over uncopied (`_own`); two-mode squeezed vacuum keeps
    only its diagonal p_n, on which the cutoffs, marginals, contraction
    with kernel tables and normalization checks work, and makes `probs`
    dense on first access.
    """

    probs: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        arr = _reals(self.probs, np.shape(self.probs), "joint probabilities")
        if arr.ndim != 2:
            raise ValueError("joint distribution needs a 2-D probability table")
        self._settle(_kept(arr, self.probs), self.tail_bound)

    @classmethod
    def _own(cls, values: np.ndarray, tail_bound: float):
        """A state on the library's own float64 array, kept uncopied: a 2-D
        table, or a 1-D diagonal."""
        state = object.__new__(cls)
        state._settle(values, tail_bound)
        return state

    def _settle(self, values: np.ndarray, tail_bound: float) -> None:
        total = float(values.sum()) + tail_bound
        if not abs(total - 1.0) <= _NORM_SLACK:  # also NaN and empty tables
            raise NormalizationViolation(
                f"joint probabilities plus tail sum to {total!r}, not 1")
        if values.min() < 0.0:
            raise ValueError("negative probability in joint distribution")
        values.setflags(write=False)
        # the table the forward model contracts: `probs`, or the diagonal
        object.__setattr__(self, "_table", values)
        if values.ndim == 2:
            object.__setattr__(self, "probs", values)
        object.__setattr__(self, "tail_bound", float(tail_bound))

    def __getattr__(self, name):
        # only a diagonal state lacks its table; it is made once, on demand
        if name != "probs" or self._table.ndim != 1:
            raise AttributeError(name)
        table = np.diag(self._table)
        table.setflags(write=False)
        object.__setattr__(self, "probs", table)
        return table

    @property
    def cutoffs(self) -> tuple[int, int]:
        # a diagonal's one length is both
        return self._table.shape[0] - 1, self._table.shape[-1] - 1

    def marginal(self, mode: int) -> PhotonNumberDistribution:
        p = (self._table if self._table.ndim == 1
             else self._table.sum(axis=1 - mode))
        return PhotonNumberDistribution(tuple(p), self.tail_bound)


def _check_tol(tol: float):
    if not (0.0 < tol < 1.0):
        raise ValueError(f"truncation tolerance {tol!r} outside (0,1)")


def _check_mean(mean: float, limit: float = math.inf):
    if not 0.0 <= mean < limit:
        raise ValueError(f"mean photon number {mean!r} outside [0, {limit})")


def _too_long(tol: float) -> ValueError:
    return ValueError(
        f"tail below {tol!r} needs more than {_MAX_CUTOFF} photon numbers")


def _check_cutoff(q: float, tol: float) -> float:
    """log(tol)/log(q), the M from which q^M <= tol; a tail that falls below
    tol only beyond _MAX_CUTOFF is rejected."""
    steps = math.log(tol) / math.log(q) if q < 1.0 else math.inf
    if not steps <= _MAX_CUTOFF:
        raise _too_long(tol)
    return steps


def _cutoff(tail, tol: float, estimate: float, lo: int) -> int:
    """The least M >= lo with tail(M) <= tol, for a tail that decreases in
    M: the same M as a scan up from lo, found from a closed-form estimate
    of it by stepping down while the tail one below stays within tol, then
    up while it does not."""
    m = max(lo, int(estimate) - 2)
    while m > lo and tail(m - 1) <= tol:
        m -= 1
    while tail(m) > tol:
        m += 1
    return m


def coherent_distribution(mean_photons: float,
                          tol: float = DEFAULT_TAIL_TOL) -> PhotonNumberDistribution:
    """Poisson photon statistics of a coherent state with <n> = mean_photons."""
    _check_tol(tol)
    mu = float(mean_photons)
    # the loop below runs at least to n = mu
    _check_mean(mu, _MAX_CUTOFF)
    if mu == 0.0:
        return PhotonNumberDistribution((1.0,), 0.0)
    # successive term ratios p_{m+1}/p_m = mu/(m+1) only decrease, so the
    # tail beyond n is majorized by the geometric sum p_n * r/(1-r) with
    # r = mu/(n+1); that majorant, rounded up, is the recorded tail bound
    with mp.workprec(MIN_PRECISION):
        p = mp.exp(-mp.mpf(mu))
        probs = [p]
        n = 0
        while True:
            r = mu / (n + 1)
            if r < 1.0 and float(probs[-1]) * r / (1.0 - r) <= tol:
                break
            n += 1
            p = p * mu / n
            probs.append(p)
            if n > _MAX_CUTOFF:
                raise ValueError(f"coherent cutoff above {_MAX_CUTOFF}")
        r = mp.mpf(mu) / (n + 1)
        tail = math.nextafter(float(p * r / (1 - r)), math.inf)
    return PhotonNumberDistribution(tuple(float(q) for q in probs), tail,
                                   analytic=("coherent", mu))


def thermal_distribution(nbar: float,
                         tol: float = DEFAULT_TAIL_TOL) -> PhotonNumberDistribution:
    """Geometric photon statistics p_n = nbar^n/(nbar+1)^{n+1}."""
    _check_tol(tol)
    nb = float(nbar)
    _check_mean(nb)
    if nb == 0.0:
        return PhotonNumberDistribution((1.0,), 0.0)
    q = nb / (nb + 1.0)
    # tail beyond cutoff M is exactly q^{M+1}
    cutoff = _cutoff(lambda m: q ** (m + 1), tol, _check_cutoff(q, tol) - 1, 0)
    probs = [(q ** n) / (nb + 1.0) for n in range(cutoff + 1)]
    return PhotonNumberDistribution(tuple(probs), q ** (cutoff + 1),
                                   analytic=("thermal", nb))


def spats_distribution(nbar: float,
                       tol: float = DEFAULT_TAIL_TOL) -> PhotonNumberDistribution:
    """Single photon added to a thermal state of mean nbar.

    p_0 = 0 and p_n = n q^{n-1}/(nbar+1)^2 with q = nbar/(nbar+1); the tail
    beyond cutoff M is exactly q^M (M+1+nbar)/(nbar+1).
    """
    _check_tol(tol)
    nb = float(nbar)
    _check_mean(nb)
    if nb == 0.0:
        return PhotonNumberDistribution((0.0, 1.0), 0.0)
    q = nb / (nb + 1.0)
    steps = _check_cutoff(q, tol)  # the tail below is at least q^M

    def tail(m):
        return q ** m * (m + 1.0 + nb) / (nb + 1.0)
    # tail(M) <= tol from M = steps + log((M + 1 + nbar)/(nbar + 1))/-log(q)
    # on; two fixed-point steps from `steps` approach that M from below
    estimate = steps
    for _ in range(2):
        estimate = steps - (math.log((estimate + 1.0 + nb) / (nb + 1.0))
                            / math.log(q))
    cutoff = _cutoff(tail, tol, estimate, 1)
    if cutoff > _MAX_CUTOFF:  # the factor (M+1+nbar)/(nbar+1) carried it past
        raise _too_long(tol)
    pref = 1.0 / (nb + 1.0) ** 2
    probs = [0.0] + [pref * n * q ** (n - 1) for n in range(1, cutoff + 1)]
    return PhotonNumberDistribution(tuple(probs), tail(cutoff),
                                   analytic=("spats", nb))


def fock_distribution(n: int) -> PhotonNumberDistribution:
    """Photon-number eigenstate |n>."""
    if not isinstance(n, int) or not 0 <= n <= _MAX_CUTOFF:
        raise ValueError(f"Fock level must be an integer in [0, {_MAX_CUTOFF}]")
    return PhotonNumberDistribution((0.0,) * n + (1.0,), 0.0)


def odd_coherent(alpha: complex) -> CoherentSuperposition:
    """Normalized superposition of |alpha> and -|-alpha> (odd Fock support)."""
    a = complex(alpha)
    # products overflow to inf where abs(a) ** 2 would raise
    if not a.real * a.real + a.imag * a.imag < _MAX_CUTOFF:
        raise ValueError(
            f"amplitude alpha = {alpha!r}: |alpha|^2 must be below {_MAX_CUTOFF}")
    if abs(a) ** 2 < 1e-150:
        raise ZeroAmplitude("odd superposition is undefined at zero amplitude")
    mu = abs(a) ** 2
    norm = 1.0 / math.sqrt(-2.0 * math.expm1(-2.0 * mu))
    return CoherentSuperposition(((norm, a), (-norm, -a)))


def tmsv_joint(xi: complex, tol: float = DEFAULT_TAIL_TOL) -> JointPhotonDistribution:
    """Two-mode squeezed vacuum: perfectly photon-number-correlated,
    p_{n,n} = (1-|xi|^2)|xi|^{2n}."""
    _check_tol(tol)
    x = complex(xi)
    r = abs(x) ** 2
    if r >= 1.0:
        raise SqueezingOutOfRange(f"|xi| = {abs(x)!r} must be < 1")
    if r == 0.0:
        return JointPhotonDistribution._own(np.array([1.0]), 0.0)
    cutoff = _cutoff(lambda m: r ** (m + 1), tol, _check_cutoff(r, tol) - 1, 0)
    return JointPhotonDistribution._own(
        (1.0 - r) * r ** np.arange(cutoff + 1), r ** (cutoff + 1))


def product_joint(d1: PhotonNumberDistribution,
                  d2: PhotonNumberDistribution) -> JointPhotonDistribution:
    """Uncorrelated two-mode state from two single-mode distributions."""
    table = np.outer(d1.probs, d2.probs)
    tail = d1.tail_bound + d2.tail_bound - d1.tail_bound * d2.tail_bound
    return JointPhotonDistribution._own(table, tail)


def mixture_joint(weights, components) -> JointPhotonDistribution:
    """Convex mixture of joint distributions (weights must sum to 1)."""
    weights = [float(w) for w in weights]
    components = list(components)
    if len(weights) != len(components):
        raise ValueError("one weight per component required")
    if not components:
        raise ValueError("mixture needs at least one component")
    if not (all(w >= 0.0 for w in weights)
            and abs(math.fsum(weights) - 1.0) <= 1e-12):
        raise ValueError("weights must be non-negative and sum to 1")
    shape = (max(c.probs.shape[0] for c in components),
             max(c.probs.shape[1] for c in components))
    table = np.zeros(shape)
    tail = 0.0
    for w, c in zip(weights, components):
        s = c.probs.shape
        table[:s[0], :s[1]] += w * c.probs
        tail += w * c.tail_bound
    return JointPhotonDistribution._own(table, tail)


def _pair_weights(terms):
    """(conj(c_i) c_j <a_i|a_j>, conj(a_i) a_j) for all pairs, at current precision."""
    amps = [(mp.mpc(c), mp.mpc(a), abs(mp.mpc(a)) ** 2 / 2) for c, a in terms]
    return [(mp.conj(ci) * cj * mp.exp(mp.conj(ai) * aj - hi - hj),
             mp.conj(ai) * aj) for ci, ai, hi in amps for cj, aj, hj in amps]


def _real_part(value, hermitian_tol: float = 1e-10):
    """The real part of an expectation, rejecting an imaginary residue."""
    if abs(mp.im(value)) > hermitian_tol * max(1, abs(value)):
        raise NonHermitianResult(
            f"imaginary residue {float(mp.im(value))!r} exceeds {hermitian_tol}")
    return mp.re(value)


def _superposition_expectation(terms, h: PowerSeries, hermitian_tol: float = 1e-10):
    """sum_ij conj(c_i) c_j h(z_ij) <a_i|a_j> with z_ij = conj(a_i) a_j, at the
    current precision, for the caller's series h as truncated.  (Click
    statistics need no series: see `detector._superposition_E`.)"""
    return _real_part(mp.fsum(g * h.evaluate(z) for g, z in _pair_weights(terms)),
                      hermitian_tol)


def nom_expectation(state, h: PowerSeries, prec: int | None = None) -> float:
    """Normally ordered expectation <:h(nhat):> for the given state.

    Distributions: sum of p_n times the diagonal Fock matrix element, which
    requires h to resolve every retained Fock level (h.order >= cutoff),
    taken exactly and rounded once, as in diag_matrix_element; `prec` does
    not change it.  Superpositions: the cross-amplitude rule at `prec` bits
    (default `auto_precision(h.order)`); h is evaluated as given, so the
    caller is responsible for carrying enough orders for convergence at the
    relevant amplitudes.
    """
    if isinstance(state, PhotonNumberDistribution):
        if h.order < state.cutoff:
            raise OrderTooLow(
                f"series order {h.order} below state cutoff {state.cutoff}")
        levels = [(n, pn) for n, pn in enumerate(state.probs) if pn != 0.0]
        return _fock_average(h.coefficients, levels)
    if isinstance(state, CoherentSuperposition):
        p = prec if prec is not None else auto_precision(h.order)
        with mp.workprec(p):
            return float(_superposition_expectation(state.terms, h))
    raise TypeError(f"unsupported state type {type(state).__name__}")


def _moments(dist: PhotonNumberDistribution) -> tuple[float, float]:
    mean = math.fsum(n * p for n, p in enumerate(dist.probs))
    second = math.fsum(n * n * p for n, p in enumerate(dist.probs))
    return mean, second


def mandel_q(state) -> float:
    """Photon-number variance excess over Poisson: <(dn)^2>/<n> - 1."""
    if isinstance(state, PhotonNumberDistribution):
        mean, second = _moments(state)
        if mean <= 0.0:
            raise ZeroMeanPhotonNumber("Mandel Q undefined at zero mean")
        return (second - mean * mean) / mean - 1.0
    if isinstance(state, CoherentSuperposition):
        mean = nom_expectation(state, PowerSeries((0.0, 1.0)))
        nom2 = nom_expectation(state, PowerSeries((0.0, 0.0, 1.0)))
        if mean <= 0.0:
            raise ZeroMeanPhotonNumber("Mandel Q undefined at zero mean")
        # <(dn)^2> = <:n^2:> + <n> - <n>^2
        return (nom2 + mean - mean * mean) / mean - 1.0
    raise TypeError(f"unsupported state type {type(state).__name__}")


def _finite(value, what: str) -> float:
    """A descriptor number, a JSON int or float (not a bool), as a float;
    any other value, NaN, an infinity or one beyond float range is
    rejected, not parsed."""
    try:
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value)):
            return float(value)
    except OverflowError:  # an integer beyond float range
        pass
    raise DescriptorError(f"{what} must be a finite number, got {value!r}")


def _integer(value, what: str) -> int:
    """A descriptor integer: an integer or an integral float, not a bool;
    any other value is rejected, not truncated."""
    if isinstance(value, float) and value.is_integer() or isinstance(
            value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise DescriptorError(f"{what} must be an integer, got {value!r}")


def _complex_param(value, what: str) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise DescriptorError(f"{what} as a pair must be [re, im]")
        return complex(_finite(value[0], what), _finite(value[1], what))
    if isinstance(value, (int, float)):
        return complex(_finite(value, what))
    raise DescriptorError(f"{what} must be a number or an [re, im] pair")


def state_from_descriptor(desc: dict):
    """Build a state from a JSON-style descriptor; see the README for kinds."""
    if not isinstance(desc, dict):
        raise DescriptorError("state descriptor must be a JSON object")
    kind = desc.get("kind")
    tol = _finite(desc["tol"], "tol") if "tol" in desc else DEFAULT_TAIL_TOL
    try:
        if kind == "coherent":
            return coherent_distribution(
                _finite(desc["mean_photons"], "mean_photons"), tol)
        if kind == "thermal":
            return thermal_distribution(_finite(desc["nbar"], "nbar"), tol)
        if kind == "spats":
            return spats_distribution(_finite(desc["nbar"], "nbar"), tol)
        if kind == "fock":
            return fock_distribution(_integer(desc["n"], "n"))
        if kind == "odd_coherent":
            return odd_coherent(_complex_param(desc["alpha"], "alpha"))
        if kind == "tmsv":
            return tmsv_joint(_complex_param(desc["xi"], "xi"), tol)
    except KeyError as exc:
        raise DescriptorError(f"state descriptor missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DescriptorError(f"bad state parameter: {exc}") from exc
    raise DescriptorError(f"unknown state kind {kind!r}")
