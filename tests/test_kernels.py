"""Click kernels against exact rational kernels.

Physical responses (linear, affine, a degree-1 polynomial of slope at most
one, n-photon absorption) build t_k(n) from non-negative terms only, so
every entry is held to (order + N) 2^-52 relative to its exact value, with
an absolute allowance of (order + 1) 2^-1074 for entries whose exact value
lies below the float range.  Formal responses (x^n0 and superlinear
polynomials) build exact rational kernels, held equal to the reference, or
within 1e-40 where a constant term rounds e^-f(0).  The exact kernels come
from `exact_kernels`.
"""

import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import mpmath as mp
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clickstats import (
    ClickStatistics,
    JointClickStatistics,
    JointPhotonDistribution,
    PhotonNumberDistribution,
    click_statistics,
    coherent_distribution,
    joint_click_statistics,
    odd_coherent,
    thermal_distribution,
    witness_report,
)
from clickstats import detector
from clickstats.detector import (
    Affine,
    DetectorConfig,
    Linear,
    NPhotonAbsorption,
    PolynomialSeries,
    Power,
    _formal_kernels,
    _positive_kernels,
)
from exact_kernels import (
    linear_kernel,
    nabs_kernel,
    poly_kernels,
    power_kernels,
    witness_of,
)

RESPONSES = st.one_of(
    st.builds(Linear, st.floats(1e-3, 1.0)),
    st.builds(Affine, st.floats(1e-3, 1.0), st.floats(0.0, 3.0)),
    st.builds(lambda nu, eta: PolynomialSeries((nu, eta)),
              st.floats(0.0, 3.0), st.floats(0.0, 1.0)),
    st.just(Power(1)),
    st.builds(NPhotonAbsorption, st.integers(1, 6)),
)
BANKS = st.builds(DetectorConfig, st.integers(1, 6), RESPONSES)


def _linear_parameters(resp):
    if isinstance(resp, Linear):
        return resp.eta, 0.0
    if isinstance(resp, Affine):
        return resp.eta, resp.nu
    if isinstance(resp, PolynomialSeries):
        return resp.coefficients[1], resp.coefficients[0]
    return 1.0, 0.0  # Power(1)


def exact_kernel(det, k, n):
    if isinstance(det.response, NPhotonAbsorption):
        return nabs_kernel(det.N, det.response.n0, k, n)
    return linear_kernel(det.N, *_linear_parameters(det.response), k, n)


def relative_bound(det, order):
    return (order + det.N) * 2.0 ** -52


def assert_matches_exact(det, order, columns, T=None):
    # the exact values are rounded to 300 bits for the comparison, far
    # below the bound
    if T is None:
        T = _positive_kernels(det, order)
    assert T.shape == (det.N + 1, order + 1)
    r = relative_bound(det, order)
    with mp.workprec(300):
        tiny = mp.ldexp(order + 1, -1074)
        for n in columns:
            for k in range(det.N + 1):
                want = exact_kernel(det, k, n)
                if want == 0:  # e.g. k clicks on fewer than k photons
                    assert T[k, n] == 0.0, (k, n)
                    continue
                want = mp.mpf(want.numerator) / want.denominator
                assert abs(T[k, n] - want) <= r * want + tiny, (
                    k, n, T[k, n], float(want))


def assert_stochastic(det, order):
    T = _positive_kernels(det, order)
    assert np.isfinite(T).all()
    assert T.min() >= 0.0
    r = relative_bound(det, order)
    for col in T.T:
        assert abs(math.fsum(col) - 1.0) <= (det.N + 1) * r


class TestAgainstExactKernels:
    @settings(max_examples=40, deadline=None)
    @given(det=BANKS, order=st.integers(0, 32))
    def test_every_entry(self, det, order):
        assert_matches_exact(det, order, range(order + 1))

    @settings(max_examples=40, deadline=None)
    @given(det=BANKS, order=st.integers(0, 512))
    def test_columns_are_distributions(self, det, order):
        assert_stochastic(det, order)

    def test_nabs_bank_of_16_at_order_256(self):
        det = DetectorConfig(16, NPhotonAbsorption(3))
        assert_matches_exact(det, 256, range(257))
        assert_stochastic(det, 256)

    def test_order_2048(self):
        # float binomial coefficients overflow past n = 1029; these columns
        # straddle that and reach the end of the table
        columns = (0, 3, 1029, 1030, 2048)
        for det in (DetectorConfig(8, NPhotonAbsorption(3)),
                    DetectorConfig(4, Linear(0.9)),
                    DetectorConfig(5, Affine(0.85, 0.1))):
            assert_matches_exact(det, 2048, columns)
            assert_stochastic(det, 2048)


class TestThresholdBlocks:
    """n-photon absorption kernels contract their transition table in
    blocks of rows: any blocking keeps every entry within the bound, and a
    bright state's table never stands in memory whole."""

    @settings(max_examples=30, deadline=None)
    @given(det=st.builds(DetectorConfig, st.integers(1, 6),
                         st.builds(NPhotonAbsorption, st.integers(1, 6))),
           order=st.integers(0, 40), entries=st.integers(1, 400))
    def test_any_blocking_matches_exact(self, det, order, entries):
        with mock.patch.object(detector, "_BLOCK_ENTRIES", entries):
            T = detector._threshold_occupancy(det.N, det.response.n0,
                                              order + 1)
        assert_matches_exact(det, order, range(order + 1), T)

    def test_bright_thermal_peak_memory(self):
        # thermal nbar 100 takes 3329 Fock levels, where one whole
        # 3329 x 3329 float table would take 85 MB
        L = detector._bucket(thermal_distribution(100.0).cutoff) + 1
        assert L > 3000
        tracemalloc.start()
        try:
            detector._threshold_occupancy(4, 2, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


FORMAL = st.one_of(
    st.builds(Power, st.integers(2, 5)),
    # superlinear: a positive coefficient of degree 2 or 3 on top
    st.builds(lambda f0, a1, middle, top: PolynomialSeries(
        (f0, a1, *middle, top)),
        st.one_of(st.just(0.0), st.floats(1e-3, 2.0)), st.floats(0.0, 1.5),
        st.lists(st.floats(0.0, 1.0), max_size=1), st.floats(1e-3, 1.0)),
)
FORMAL_BANKS = st.builds(DetectorConfig, st.integers(1, 6), FORMAL)


def exact_formal_kernels(det, order):
    resp = det.response
    if isinstance(resp, Power):
        return power_kernels(det.N, resp.n0, order)
    return poly_kernels(det.N, resp.coefficients, order)


class TestFormalKernels:
    @settings(max_examples=30, deadline=None)
    @given(det=FORMAL_BANKS, order=st.integers(0, 32))
    # the cubic coefficient 0.1 = m/2^56 alone sets the integer scale 2^19
    @example(det=DetectorConfig(5, PolynomialSeries((0.0, 0.5, 0.5, 0.1))),
             order=32)
    def test_equal_the_exact_reference(self, det, order):
        T, D, exact_error = _formal_kernels(det, order, None)
        got = [[Fraction(t, D) for t in row] for row in T.tolist()]
        want = exact_formal_kernels(det, order)
        # the statistics contracted from these kernels carry their error
        stats = click_statistics(PhotonNumberDistribution((0.0,) * order
                                                          + (1.0,)), det)
        assert (stats.exact_error, stats.relative_error) == (exact_error, 0.0)
        if getattr(det.response, "coefficients", (0.0,))[0]:
            # a dark offset rounds q = e^-f(0), and only q
            assert exact_error == 1e-40
            assert max(abs(t - w) for t, w in
                       zip(sum(got, []), sum(want, []))) <= Fraction(1e-40)
        else:
            assert exact_error == 0.0
            assert got == want

    @settings(max_examples=30, deadline=None)
    @given(det=FORMAL_BANKS, order=st.integers(0, 64))
    def test_columns_sum_to_one_exactly(self, det, order):
        T, D, _ = _formal_kernels(det, order, None)
        assert T.shape == (det.N + 1, order + 1)
        assert all(type(t) is int for t in T.flat)
        assert all(sum(col) == D for col in T.T)


# formal banks of one to four diodes, with and without a dark offset f(0)
SMALL_FORMAL = st.builds(DetectorConfig, st.integers(1, 4), st.one_of(
    st.builds(Power, st.integers(2, 3)),
    st.builds(lambda f0, a1, a2: PolynomialSeries((f0, a1, a2)),
              st.sampled_from([0.0, 0.02, 0.35]), st.floats(0.0, 1.5),
              st.floats(1e-3, 1.0))))
PHYSICAL = st.builds(DetectorConfig, st.integers(1, 4), st.one_of(
    st.builds(Linear, st.floats(1e-3, 1.0)),
    st.builds(Affine, st.floats(1e-3, 1.0), st.floats(0.0, 1.0))))
# a Fock state, or a caller's table with zeros: integer weights normalized
WEIGHTS = st.one_of(
    st.integers(0, 10).map(lambda n: [0] * n + [1]),
    st.lists(st.integers(0, 4), min_size=1, max_size=11).filter(any))


def _table(weights):
    return [w / sum(weights) for w in weights]


@lru_cache(maxsize=None)
def _reference_kernels(det, levels):
    """Kernels over n = 0..levels - 1 as Fractions: the exact reference of
    a formal response, the float kernels of a physical one read exactly."""
    cutoff = levels - 1
    if detector._formal(det.response):
        return exact_formal_kernels(det, cutoff)
    T = _positive_kernels(det, detector._bucket(cutoff))[:, :cutoff + 1]
    return [[Fraction(t) for t in row] for row in T.tolist()]


def _dark(det):
    return bool(getattr(det.response, "coefficients", (0.0,))[0])


def _report(stats):
    """witness_report of the statistics, or the exception it raises."""
    try:
        return witness_report(stats)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)


def _assert_read_as_given(stats, rebuilt):
    """The statistics hold exactly the numbers of `rebuilt`, a caller-built
    twin of them read through `exact`: the same floats, integers, scale
    and witness report."""
    assert np.array_equal(stats.probs, rebuilt.probs)
    assert np.array_equal(stats._ints, rebuilt._ints)
    assert stats._scale == rebuilt._scale
    assert all(Fraction(n, stats._scale) == x for n, x in zip(
        np.ravel(stats._ints), np.ravel(np.array(stats.exact, dtype=object))))
    assert _report(stats) == _report(rebuilt)


class TestIntegerPath:
    """Formal statistics contracted on integers equal a contraction of the
    exact reference kernels on Fractions."""

    @settings(max_examples=40, deadline=None)
    @given(det=SMALL_FORMAL, weights=WEIGHTS)
    def test_one_bank(self, det, weights):
        p = _table(weights)
        stats = click_statistics(PhotonNumberDistribution(tuple(p)), det)
        K = _reference_kernels(det, len(p))
        want = [sum(t * Fraction(x) for t, x in zip(row, p)) for row in K]
        assert stats.formal and stats.relative_error == 0.0
        if _dark(det):
            # a dark offset rounds q = e^-f(0), and only q
            assert stats.exact_error == 1e-40
            assert max(abs(c - w) for c, w in zip(stats.exact, want)) \
                <= Fraction(1e-40) * sum(map(Fraction, p))
        else:
            assert stats.exact_error == 0.0
            assert stats.exact == tuple(want)
            report = _report(stats)
            if not isinstance(report, tuple):
                minors = witness_of(want, (det.N,))["minors"]
                assert report.leading_minors == minors
        assert all(type(c) is Fraction for c in stats.exact)
        assert stats.probs == tuple(map(float, stats.exact))
        _assert_read_as_given(stats, ClickStatistics(
            det.N, stats.probs, exact=stats.exact, formal=True,
            exact_error=stats.exact_error))

    @settings(max_examples=30, deadline=None)
    @given(dets=st.one_of(st.tuples(SMALL_FORMAL, SMALL_FORMAL),
                          st.tuples(SMALL_FORMAL, PHYSICAL),
                          st.tuples(PHYSICAL, SMALL_FORMAL)),
           rows=st.lists(WEIGHTS, min_size=1, max_size=6),
           diagonal=st.booleans())
    def test_two_banks(self, dets, rows, diagonal):
        if diagonal:
            p = _table(rows[0])
            state = JointPhotonDistribution._own(np.array(p), 0.0)
            P = np.diag(p)
        else:
            width = max(map(len, rows))
            P = np.array(_table(sum((r + [0] * (width - len(r)) for r in rows),
                                    []))).reshape(len(rows), width)
            state = JointPhotonDistribution(P)
        stats = joint_click_statistics(state, *dets)
        K1, K2 = (_reference_kernels(d, c) for d, c in zip(dets, P.shape))
        want = [[sum(a * Fraction(x) * b for a, row in zip(k1, P.tolist())
                     for b, x in zip(k2, row)) for k2 in K2] for k1 in K1]
        # a dark offset moves each kernel of its bank by at most 1e-40
        err = [Fraction(1e-40) if _dark(d) else 0 for d in dets]
        bound = max(sum(
            Fraction(x) * (err[0] * abs(b) + abs(a) * err[1] + err[0] * err[1])
            for a, row in zip(k1, P.tolist()) for b, x in zip(k2, row))
            for k1 in K1 for k2 in K2)
        assert stats.formal
        assert max(abs(c - w) for c, w in zip(sum(stats.exact, ()),
                                              sum(want, []))) <= bound
        if not any(err):
            assert stats.exact == tuple(map(tuple, want))
        assert all(type(c) is Fraction for c in sum(stats.exact, ()))
        assert stats.probs.tolist() == [list(map(float, r)) for r in stats.exact]
        _assert_read_as_given(stats, JointClickStatistics(
            dets[0].N, dets[1].N, stats.probs, exact=stats.exact, formal=True))


def _fire_probability(resp, x):
    """1 - exp(-f(x)) at 100 bits."""
    with mp.workprec(100):
        x = mp.mpf(x)
        if isinstance(resp, NPhotonAbsorption):
            return 1 - mp.exp(-x) * mp.fsum(x ** j / mp.factorial(j)
                                            for j in range(resp.n0))
        eta, nu = _linear_parameters(resp)
        return -mp.expm1(-(mp.mpf(eta) * x + mp.mpf(nu)))


class TestCoherentInput:
    @settings(max_examples=40, deadline=None)
    @given(det=BANKS, mu=st.floats(0.0, 30.0))
    def test_binomial_clicks(self, det, mu):
        # a coherent state fires each diode apart with 1 - exp(-f(mu/N));
        # the truncated table misses the Poisson mass beyond its cutoff,
        # measured here at 100 bits, which the state's tail_bound must bound
        state = coherent_distribution(mu)
        stats = click_statistics(state, det)
        p = _fire_probability(det.response, mu / det.N)
        with mp.workprec(100):
            missing = mp.gammainc(state.cutoff + 1, 0, mu, regularized=True)
            assert state.tail_bound >= missing
            for k, got in enumerate(stats.probs):
                want = mp.binomial(det.N, k) * p ** k * (1 - p) ** (det.N - k)
                assert abs(got - want) <= (state.tail_bound
                                           + 2 * stats.relative_error * want
                                           + 1e-300), (k, got, float(want))


def _odd_distribution(alpha):
    """Photon numbers of the odd coherent state, p_n = mu^n/n!/sinh(mu) on
    odd n with mu = alpha^2, up to a cutoff past mu with the missing mass
    (at 200 bits) below 1e-15, recorded, rounded up, as the tail."""
    with mp.workprec(200):
        mu = mp.mpf(alpha) ** 2
        probs, n, total = [], 0, mp.mpf(0)
        while n <= mu or 1 - total > 1e-15:
            p = mu ** n / mp.factorial(n) / mp.sinh(mu) if n % 2 else 0
            probs.append(float(p))
            total += p
            n += 1
        tail = math.nextafter(float(1 - total), math.inf)
    return PhotonNumberDistribution(tuple(probs), tail)


PHYSICAL = st.one_of(
    st.builds(Linear, st.floats(1e-3, 1.0)),
    st.builds(Affine, st.floats(1e-3, 1.0), st.floats(0.0, 3.0)),
    st.builds(NPhotonAbsorption, st.integers(1, 6)),
)


class TestOddCoherentInput:
    @settings(max_examples=40, deadline=None)
    @given(det=st.builds(DetectorConfig, st.integers(1, 8), PHYSICAL),
           mu=st.floats(1e-6, 25.0))
    def test_superposition_matches_its_photon_numbers(self, det, mu):
        # the closed-form superposition sum and the float kernels contracted
        # against the state's photon-number distribution are two paths to
        # the same statistics
        alpha = math.sqrt(mu)
        sup = click_statistics(odd_coherent(alpha), det)
        table = click_statistics(_odd_distribution(alpha), det)
        for k, (got, want) in enumerate(zip(table.probs, sup.exact)):
            allowed = (table.relative_error * abs(want) + table.norm_slack
                       + sup.exact_error)
            assert abs(got - want) <= allowed, (k, got, float(want))
