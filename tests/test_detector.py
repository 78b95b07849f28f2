"""Forward-model tests.

The main oracle is analytic: a coherent state of intensity mu produces
exactly binomial click statistics Binom(N, 1 - exp[-f(mu/N)]) for any
response f, with f evaluated here in closed form, independently of the
series machinery under test.  Fock inputs give polynomial closed forms via
<n|:exp(-g nhat):|n> = (1 - g)^n.
"""

import io
import json
import logging
import math
import re
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickstats import (
    Affine,
    ClickHistogram,
    ClickStatistics,
    DetectorConfig,
    JointClickStatistics,
    Linear,
    NPhotonAbsorption,
    PhotonNumberDistribution,
    PolynomialSeries,
    Power,
    click_statistics,
    coherent_distribution,
    detector_from_descriptor,
    estimate_statistics,
    fock_distribution,
    generating_function,
    joint_click_statistics,
    multimode_effective_intensity,
    nom_expectation,
    odd_coherent,
    product_joint,
    response_series,
    spats_distribution,
    state_from_descriptor,
    thermal_distribution,
    tmsv_joint,
)
from clickstats.cli import _SWEEPS, main
from clickstats.detector import _bucket, _positive_kernels
from clickstats.errors import (
    DescriptorError,
    LengthMismatch,
    NegativeResponse,
    NormalizationViolation,
    PrecisionLoss,
    UnboundedKernel,
)
from clickstats.series import _ratio


def binomial_pmf(N, p):
    return [math.comb(N, k) * p**k * (1.0 - p) ** (N - k) for k in range(N + 1)]


def odd_poisson_distribution(mu, M=120):
    """Photon-number distribution of the odd coherent state, built directly."""
    from clickstats import PhotonNumberDistribution
    weights = [math.exp(-mu) * mu**n / math.factorial(n) if n % 2 else 0.0
               for n in range(M + 1)]
    norm = math.fsum(weights)
    return PhotonNumberDistribution(tuple(w / norm for w in weights),
                                    tail_bound=1e-15)


class TestResponseValidation:
    def test_linear_range(self):
        with pytest.raises(ValueError):
            Linear(0.0)
        with pytest.raises(ValueError):
            Linear(1.2)
        with pytest.raises(ValueError):
            Linear(-0.5)

    def test_affine_range(self):
        with pytest.raises(ValueError):
            Affine(0.9, -0.1)
        with pytest.raises(ValueError):
            Affine(0.0, 0.1)

    def test_power_exponent(self):
        with pytest.raises(ValueError):
            Power(0)
        with pytest.raises(ValueError):
            Power(1.5)

    def test_absorption_order(self):
        with pytest.raises(ValueError):
            NPhotonAbsorption(0)
        with pytest.raises(ValueError, match=r"integer in \[1, 100000\]"):
            NPhotonAbsorption(100001)
        assert NPhotonAbsorption(100000).n0 == 100000

    def test_poly_negative_constant(self):
        with pytest.raises(NegativeResponse):
            PolynomialSeries((-0.1, 1.0))

    def test_poly_negative_leading(self):
        with pytest.raises(NegativeResponse):
            PolynomialSeries((0.0, 1.0, -0.5))

    def test_poly_negative_dip_caught_at_use(self):
        resp = PolynomialSeries((0.0, -0.1, 1.0))
        det = DetectorConfig(4, resp)
        with pytest.raises(NegativeResponse):
            click_statistics(coherent_distribution(1.0), det)

    def test_detector_config(self):
        with pytest.raises(ValueError):
            DetectorConfig(0, Linear(0.5))
        with pytest.raises(TypeError):
            DetectorConfig(4, "linear")


class TestResponseSeries:
    def test_linear_exponential_coefficients(self):
        N, eta, s = 8, 0.9, 3
        ser = response_series(Linear(eta), N, s, 12)
        for k in range(13):
            expected = (-s * eta / N) ** k / math.factorial(k)
            assert abs(float(ser.coefficients[k]) - expected) < 1e-16 * (
                1 + abs(expected))

    def test_zero_diodes_firing(self):
        ser = response_series(NPhotonAbsorption(2), 4, 0, 10)
        assert float(ser.coefficients[0]) == 1.0
        assert all(float(c) == 0.0 for c in ser.coefficients[1:])

    def test_absorption_order_one_is_linear(self):
        a = response_series(NPhotonAbsorption(1), 4, 2, 10)
        b = response_series(Linear(1.0), 4, 2, 10)
        for ca, cb in zip(a.coefficients, b.coefficients):
            assert abs(float(ca - cb)) < 1e-30

    @pytest.mark.parametrize("resp,terms,s", [
        (Power(2), {2: 1}, 3),
        (Power(3), {3: 1}, 3),
        (PolynomialSeries(coefficients=(0.0, 1.0, 0.25)), {1: 1, 2: 0.25}, 3),
        (PolynomialSeries(coefficients=(0.0, 1.0, 0.25)), {1: 1, 2: 0.25},
         2.5),
        (Affine(0.7, 0.3), {1: 0.7}, 2.5),
    ], ids=["power2", "power3", "poly", "poly-s2.5", "affine-s2.5"])
    def test_power_and_polynomial_coefficients(self, resp, terms, s):
        # exp(-s f(x/N)) as e^(-s f(0)), at 200 bits, times the product over
        # the terms c x^j of f's series exp(-s c (x/N)^j), each sum_m (-s c /
        # N^j)^m / m! x^(jm), in Fractions
        N, order = 4, 12
        with mp.workprec(200):
            want = [Fraction(*_ratio(mp.exp(-s * mp.mpf(resp.evaluate(0.0)))))]
        want += [Fraction(0)] * order
        for j, c in terms.items():
            a = -Fraction(s) * Fraction(c) / N ** j
            factor = [Fraction(0)] * (order + 1)
            for m in range(order // j + 1):
                factor[j * m] = a ** m / math.factorial(m)
            want = [sum(want[i] * factor[k - i] for i in range(k + 1))
                    for k in range(order + 1)]
        ser = response_series(resp, N, s, order)
        for got, w in zip(ser.coefficients, want):
            assert abs(Fraction(float(got)) - w) <= 1e-16 * (1 + abs(w))

    def test_absorption_matches_a_fraction_product(self):
        # e^(-s x/N) B(x/N)^s, B(x) = 1 + x for two-photon absorption, as a
        # product of Fraction series; the mpf series at a guessed precision
        # read -2.59e-72 at k = 56, against -7.74e-74
        N, s, order = 1, 1, 60
        e = [Fraction((-s) ** k, N ** k * math.factorial(k))
             for k in range(order + 1)]
        b = [Fraction(math.comb(s, k), N ** k) for k in range(order + 1)]
        want = [sum(e[i] * b[k - i] for i in range(k + 1))
                for k in range(order + 1)]
        ser = response_series(NPhotonAbsorption(2), N, s, order)
        for got, w in zip(ser.coefficients, want):
            if w:
                assert abs(Fraction(*_ratio(got)) - w) <= 1e-15 * abs(w)

    def test_absorption_fock_sums_closed_form(self):
        # <:exp[-f(nhat/2)]:> for three-photon absorption is the average of
        # e^(-x/2) (1 + x/2 + x^2/8) over the intensity weight: for thermal
        # light x^m e^(-a x) averages to m! nbar^m / (1 + a nbar)^(m+1), so
        # 0.784 at nbar 3, and for spats (single-photon-added thermal), with
        # weight e^(-x/nbar) ((1+nbar) x - nbar)/nbar^3, to ((1+nbar) (m+1)!
        # / c^(m+2) - nbar m! / c^(m+1)) / nbar^3, c = a + 1/nbar, so 0.4384.
        # The mpf series at a guessed precision gave -2.7e27 and -1.6e43.
        nbar = 3.0
        nb, a = Fraction(nbar), Fraction(1, 2)
        c = a + 1 / nb
        terms = [(0, 1), (1, Fraction(1, 2)), (2, Fraction(1, 8))]
        thermal = sum(t * math.factorial(m) * nb ** m / (1 + a * nb) ** (m + 1)
                      for m, t in terms)
        spats = sum(t * ((1 + nb) * math.factorial(m + 1) / c ** (m + 2)
                         - nb * math.factorial(m) / c ** (m + 1))
                    for m, t in terms) / nb ** 3
        assert (thermal, spats) == (Fraction(98, 125), Fraction(274, 625))
        for state, want in ((thermal_distribution(nbar), thermal),
                            (spats_distribution(nbar), spats)):
            h = response_series(NPhotonAbsorption(3), 2, 1, state.cutoff)
            assert abs(nom_expectation(state, h) - float(want)) <= 1e-12

    @pytest.mark.parametrize("s", [math.nan, math.inf, mp.mpf("nan")],
                             ids=["nan", "inf", "mpf-nan"])
    def test_rejects_non_finite_s(self, s):
        # NaN s returned a NaN series
        with pytest.raises(ValueError, match="^s is "):
            response_series(Linear(0.5), 4, s, 3)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="order must be >= 0, got -1"):
            response_series(NPhotonAbsorption(2), 4, 1, -1)


class TestBinomialPreservation:
    """Coherent input stays binomial for every response shape."""

    @pytest.mark.parametrize("mu", [0.25, 1.0, 4.0, 16.0])
    @pytest.mark.parametrize("N", [4, 16])
    @pytest.mark.parametrize("resp", [
        Linear(1.0),
        Affine(1.0, 2.0),
        PolynomialSeries((0.0, 1.0, 0.25)),
        NPhotonAbsorption(2),
    ], ids=["linear", "affine", "poly", "nabs2"])
    def test_matches_binomial(self, mu, N, resp):
        stats = click_statistics(coherent_distribution(mu),
                                 DetectorConfig(N, resp))
        p = 1.0 - math.exp(-resp.evaluate(mu / N))
        expected = binomial_pmf(N, p)
        for ck, ek in zip(stats.probs, expected):
            assert abs(ck - ek) < 1e-10

    def test_vacuum_with_dark_counts(self):
        N, nu = 6, 0.3
        stats = click_statistics(fock_distribution(0),
                                 DetectorConfig(N, Affine(0.9, nu)))
        expected = binomial_pmf(N, 1.0 - math.exp(-nu))
        for ck, ek in zip(stats.probs, expected):
            assert abs(ck - ek) < 1e-12

    def test_vacuum_without_dark_counts(self):
        stats = click_statistics(fock_distribution(0),
                                 DetectorConfig(5, Linear(0.7)))
        assert abs(stats.probs[0] - 1.0) < 1e-14
        assert all(abs(c) < 1e-14 for c in stats.probs[1:])


class TestFockClosedForms:
    def test_single_photon(self):
        N, eta = 8, 0.9
        stats = click_statistics(fock_distribution(1),
                                 DetectorConfig(N, Linear(eta)))
        assert abs(stats.probs[0] - (1.0 - eta)) < 1e-14
        assert abs(stats.probs[1] - eta) < 1e-14
        assert all(abs(c) < 1e-14 for c in stats.probs[2:])

    def test_single_photon_blind_two_photon_diode(self):
        for resp in (Power(2), NPhotonAbsorption(2)):
            stats = click_statistics(fock_distribution(1),
                                     DetectorConfig(6, resp))
            assert abs(stats.probs[0] - 1.0) < 1e-14
            assert all(abs(c) < 1e-14 for c in stats.probs[1:])

    def test_three_photons_linear(self):
        # <n|:exp(-g nhat):|n> = (1-g)^n turns c_k into a finite alternating sum
        N, eta, n = 4, 0.7, 3
        stats = click_statistics(fock_distribution(n),
                                 DetectorConfig(N, Linear(eta)))
        for k in range(N + 1):
            expected = math.comb(N, k) * math.fsum(
                math.comb(k, j) * (-1) ** j
                * (1.0 - (N - k + j) * eta / N) ** n
                for j in range(k + 1))
            assert abs(stats.probs[k] - expected) < 1e-13


class TestNormalizationAndShape:
    @pytest.mark.parametrize("state", [
        thermal_distribution(1.7),
        spats_distribution(0.8),
        coherent_distribution(5.0),
    ], ids=["thermal", "spats", "coherent"])
    @pytest.mark.parametrize("resp", [
        Linear(0.9), Affine(0.8, 0.2), Power(2), NPhotonAbsorption(3),
    ], ids=["linear", "affine", "power2", "nabs3"])
    def test_distribution_is_normalized(self, state, resp):
        stats = click_statistics(state, DetectorConfig(8, resp))
        if not stats.formal:
            assert all(c >= 0.0 for c in stats.probs)
        assert abs(math.fsum(stats.probs) - 1.0) <= 1e-10 + state.tail_bound

    @settings(max_examples=80, deadline=None)
    @given(
        state=st.one_of(
            st.integers(0, 60).map(fock_distribution),
            st.floats(0.0, 8.0).map(thermal_distribution),
            st.floats(0.0, 40.0).map(coherent_distribution),
            st.floats(0.0, 8.0).map(spats_distribution)),
        N=st.integers(1, 16),
        resp=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True).map(Linear),
            st.tuples(st.floats(0.0, 1.0, exclude_min=True),
                      st.floats(0.0, 2.0)).map(
                lambda a: Affine(*a)),
            st.integers(1, 6).map(NPhotonAbsorption)))
    def test_physical_statistics_are_distributions(self, state, N, resp):
        # positive kernels: every c_k >= 0, and the total misses 1 by at
        # most the truncated tail plus (order + N) 2^-52 of rounding
        stats = click_statistics(state, DetectorConfig(N, resp))
        assert all(c >= 0.0 for c in stats.probs)
        slack = state.tail_bound + (_bucket(state.cutoff) + N) * 2.0 ** -52
        assert abs(math.fsum(stats.probs) - 1.0) <= slack

    def test_mean_clicks_monotone_in_efficiency(self):
        state = coherent_distribution(3.0)
        means = []
        for eta in (0.2, 0.4, 0.6, 0.8, 1.0):
            stats = click_statistics(state, DetectorConfig(4, Linear(eta)))
            means.append(math.fsum(k * c for k, c in enumerate(stats.probs)))
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_dark_count_poly_equivalence(self):
        state = thermal_distribution(1.2)
        a = click_statistics(state, DetectorConfig(6, Affine(0.8, 0.35)))
        b = click_statistics(state,
                             DetectorConfig(6, PolynomialSeries((0.35, 0.8))))
        for ca, cb in zip(a.probs, b.probs):
            assert abs(ca - cb) < 1e-12

    def test_constructor_rejects_material_negative(self):
        with pytest.raises(PrecisionLoss):
            ClickStatistics(2, (0.5, 0.5 + 1e-6, -1e-6))

    def test_constructor_rejects_bad_total(self):
        with pytest.raises(NormalizationViolation):
            ClickStatistics(2, (0.5, 0.4, 0.0))

    def test_constructor_clamps_tiny_negative(self):
        stats = ClickStatistics(2, (0.5, 0.5 + 1e-13, -1e-13))
        assert stats.probs[2] == 0.0

    def test_exact_of_another_shape_is_refused(self):
        # a flat exact on a 2x2 table and a nested one on a bank were
        # reshaped to the table's shape and taken
        q, h = Fraction(1, 4), Fraction(1, 2)
        cases = [
            (lambda: JointClickStatistics(1, 1, np.full((2, 2), 0.25),
                                          exact=(q,) * 4), "(4,)", "(2, 2)"),
            (lambda: ClickStatistics(2, (0.25, 0.5, 0.25),
                                     exact=((q,), (h,), (q,))), "(3, 1)", "(3,)"),
            (lambda: ClickStatistics(2, (0.25, 0.5, 0.25), exact=(h, h)),
             "(2,)", "(3,)"),
        ]
        for make, given_shape, probs_shape in cases:
            with pytest.raises(ValueError) as err:
                make()
            assert given_shape in str(err.value), given_shape
            assert probs_shape in str(err.value), probs_shape

    @pytest.mark.parametrize("make,message", [
        (lambda: ClickStatistics(2, (0.25, 0.5, 0.25), exact=(0, 0, 1)),
         "probs[0] is 0.25, but exact rounds to 0.0"),
        (lambda: JointClickStatistics(
            1, 1, np.full((2, 2), 0.25),
            exact=((Fraction(1, 4),) * 2, (Fraction(1, 2), 0))),
         "probs[1, 0] is 0.25, but exact rounds to 0.5"),
        # one unit in the last place off the rounded third
        (lambda: ClickStatistics(2, (1 / 3, math.nextafter(1 / 3, 1), 1 / 3),
                                 exact=(Fraction(1, 3),) * 3),
         "probs[1] is 0.33333333333333337, but exact rounds to "
         "0.3333333333333333"),
    ], ids=["bank", "two-banks", "one-ulp"])
    def test_exact_the_floats_do_not_round_from_is_refused(self, make,
                                                            message):
        # the witness reads `exact`, so a float that is not its exact value
        # rounded once would give moments of other statistics
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_exact_the_floats_round_from_is_taken(self):
        third = Fraction(1, 3)
        stats = ClickStatistics(2, (1 / 3,) * 3, exact=(third,) * 3)
        assert stats.exact == (third,) * 3 and stats.probs == (1 / 3,) * 3
        joint = JointClickStatistics(1, 1, np.full((2, 2), 0.25),
                                     exact=((Fraction(1, 4),) * 2,) * 2)
        assert joint.exact == ((Fraction(1, 4),) * 2,) * 2


class TestSuperpositionPath:
    def test_odd_coherent_against_fock_expansion(self):
        mu = 2.0
        state = odd_coherent(math.sqrt(mu))
        det = DetectorConfig(8, Linear(0.9))
        via_terms = click_statistics(state, det)
        via_probs = click_statistics(odd_poisson_distribution(mu), det)
        for a, b in zip(via_terms.probs, via_probs.probs):
            assert abs(a - b) < 1e-11

    def test_odd_coherent_nonlinear_response(self):
        mu = 1.5
        state = odd_coherent(math.sqrt(mu))
        det = DetectorConfig(4, NPhotonAbsorption(2))
        via_terms = click_statistics(state, det)
        via_probs = click_statistics(odd_poisson_distribution(mu), det)
        for a, b in zip(via_terms.probs, via_probs.probs):
            assert abs(a - b) < 1e-11

    def test_normalized(self):
        stats = click_statistics(odd_coherent(1.2), DetectorConfig(6, Linear(0.8)))
        assert abs(math.fsum(stats.probs) - 1.0) < 1e-10
        assert all(c >= 0.0 for c in stats.probs)


class TestSuperlinearResponses:
    """Responses growing faster than linearly leave the kernel route."""

    def test_analytic_weights_match_kernels_for_linear(self):
        # same states through both routes; the kernel route is certified
        # independently, validating the quadrature weights
        from clickstats.detector import _analytic_E, _click_from_E
        det = DetectorConfig(6, Linear(0.85))
        for state in (thermal_distribution(1.3), spats_distribution(0.7),
                      coherent_distribution(2.2)):
            via_kernels = click_statistics(state, det)
            E = _analytic_E(state.analytic, det, None)[0]
            assert len(E) == 7
            via_analytic = _click_from_E(6, E, None, False)
            for a, b in zip(via_kernels.probs, via_analytic.probs):
                assert abs(a - b) < 1e-12

    def test_coherent_quadratic_matches_binomial(self):
        mu, N = 16.0, 4
        resp = PolynomialSeries((0.0, 1.0, 0.25))
        stats = click_statistics(coherent_distribution(mu),
                                 DetectorConfig(N, resp))
        p = 1.0 - math.exp(-resp.evaluate(mu / N))
        for ck, ek in zip(stats.probs, binomial_pmf(N, p)):
            assert abs(ck - ek) < 1e-12

    def test_thermal_power_statistics_are_physical(self):
        # thermal light has a non-negative intensity weight, so even a
        # formal superlinear model yields a true probability vector
        stats = click_statistics(thermal_distribution(1.7),
                                 DetectorConfig(8, Power(2)))
        assert stats.formal
        assert all(c >= -1e-12 for c in stats.probs)
        assert abs(math.fsum(stats.probs) - 1.0) < 1e-10

    @pytest.mark.parametrize("kind,nbar,make,n0", [
        ("thermal", 1.0, thermal_distribution, 2),
        ("spats", 0.9, spats_distribution, 3),
    ])
    def test_quadrature_error_holds(self, kind, nbar, make, n0):
        # x^n0 on thermal or spats light is integrated by quadrature, whose
        # error estimate and rounding give exact_error; each c_k lies
        # within it of the closed forms of acceptance criterion 3
        from test_acceptance import _family_E

        from clickstats.detector import _assembly
        resp = Power(n0)
        stats = click_statistics(make(nbar), DetectorConfig(8, resp))
        assert stats.exact_error > 0.0
        with mp.workprec(300):
            E = [_family_E(kind, nbar, j, resp, None) for j in range(9)]
            for row, c in zip(_assembly(8), stats.exact):
                # the exact Fraction against the reference read exactly
                want = Fraction(*_ratio(mp.fsum(b * e for b, e in zip(row, E))))
                assert abs(c - want) <= stats.exact_error

    def test_untagged_distribution_rejected(self):
        from clickstats import PhotonNumberDistribution
        bag = PhotonNumberDistribution((0.7, 0.2, 0.05), tail_bound=0.05)
        with pytest.raises(UnboundedKernel):
            click_statistics(bag, DetectorConfig(4, Power(2)))

    def test_finite_distribution_is_exact_and_signed(self):
        # an exact finite-cutoff input keeps the kernel sum; the formal
        # statistics of an unbounded model may leave [0, 1]
        stats = click_statistics(fock_distribution(20),
                                 DetectorConfig(8, Power(2)))
        assert stats.formal
        assert abs(math.fsum(stats.probs) - 1.0) < 1e-9
        assert any(c < 0.0 for c in stats.probs)

    @pytest.mark.parametrize("n0", [30, 28])
    def test_deep_fock_total_taken_on_exact_values(self, n0):
        # Fock 31 on four diodes: <:exp[-s (nhat/4)^n0]:> = 1 - s a with
        # a = 31^(n0)/4^n0, so c = (1 - 4a, 4a, 0, 0, 0).  The click numbers
        # reach 1e16 and cancel to a total of one, which their floats miss
        stats = click_statistics(fock_distribution(31),
                                 DetectorConfig(4, Power(n0)))
        a = Fraction(math.perm(31, n0), 4 ** n0)
        assert stats.exact == (1 - 4 * a, 4 * a, 0, 0, 0)
        assert stats.exact_error == 0.0
        assert abs(math.fsum(stats.probs) - 1.0) >= 1.0

    @pytest.mark.parametrize("probs", [
        (0.0,) * 90 + (1.0,),
        (0.25,) + (0.0,) * 6 + (0.5,) + (0.0,) * 12 + (0.125, 0.0, 0.125),
    ], ids=["fock90", "fock-mixture"])
    def test_formal_contraction_skips_zeros_exactly(self, probs):
        # the formal statistics contract the nonzero p_n only, on integers,
        # which must equal the contraction over every p_n on Fractions
        from clickstats import PhotonNumberDistribution
        from clickstats.detector import _formal_kernels
        state = PhotonNumberDistribution(probs)
        det = DetectorConfig(4, Power(3))
        T, D, _ = _formal_kernels(det, _bucket(state.cutoff), None)
        full = [sum(Fraction(t, D) * Fraction(p) for t, p in zip(row, probs))
                for row in T.tolist()]
        stats = click_statistics(state, det)
        assert stats.exact == tuple(full)
        assert stats.probs == tuple(map(float, full))

    def test_joint_superlinear_with_tail_rejected(self):
        state = tmsv_joint(0.5)
        det = DetectorConfig(4, Power(2))
        with pytest.raises(UnboundedKernel):
            joint_click_statistics(state, det, det)


def _given_numbers(stats) -> list:
    """The numbers a statistics object was made from, exactly: its `exact`
    values when it carries them, else its floats."""
    values = np.ravel(np.asarray(stats.probs if stats.exact is None
                                 else stats.exact, dtype=object))
    return [Fraction(*_ratio(x)) for x in values]


@st.composite
def made_statistics(draw):
    """(statistics, the numbers given) of every source of statistics."""
    N = draw(st.integers(1, 6))
    det = DetectorConfig(N, Linear(draw(st.floats(0.05, 1.0))))
    kind = draw(st.sampled_from(["float", "joint-float", "formal",
                                 "joint-formal", "superposition",
                                 "quadrature", "estimate", "caller"]))
    if kind == "float":
        stats = click_statistics(thermal_distribution(
            draw(st.floats(0.0, 3.0))), det)
    elif kind == "joint-float":
        small = DetectorConfig(min(N, 3), det.response)
        stats = joint_click_statistics(tmsv_joint(draw(st.floats(0.0, 0.7))),
                                       small, small)
    elif kind == "formal":
        stats = click_statistics(fock_distribution(draw(st.integers(0, 20))),
                                 DetectorConfig(N, Power(2)))
    elif kind == "joint-formal":
        n1, n2 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        formal = DetectorConfig(min(N, 3), Power(2))
        stats = joint_click_statistics(product_joint(
            fock_distribution(n1), fock_distribution(n2)), formal, formal)
    elif kind == "superposition":
        stats = click_statistics(odd_coherent(draw(st.floats(0.1, 3.0))), det)
    elif kind == "quadrature":
        # a few fixed families: each cold quadrature takes a fraction of a
        # second
        stats = click_statistics(thermal_distribution(1.0), DetectorConfig(
            draw(st.sampled_from([2, 4])), Power(2)))
    elif kind == "estimate":
        counts = draw(st.lists(st.integers(0, 10 ** 12), min_size=N + 1,
                               max_size=N + 1).filter(any))
        stats = estimate_statistics(ClickHistogram(np.array(counts)))
        return stats, [Fraction(c, sum(counts)) for c in counts]
    else:
        w = draw(st.lists(st.integers(0, 10 ** 6), min_size=N + 1,
                          max_size=N + 1).filter(any))
        if draw(st.booleans()):
            exact = tuple(Fraction(x, sum(w)) for x in w)
        else:
            with mp.workprec(200):
                exact = tuple(mp.mpf(x) / sum(w) for x in w)
        stats = ClickStatistics(N, tuple(map(float, exact)), exact=exact)
    return stats, _given_numbers(stats)


class TestExactIntegers:
    """Statistics hold their numbers as integers over one scale, read once
    when they are made."""

    @settings(max_examples=80, deadline=None)
    @given(made=made_statistics())
    def test_integers_over_the_scale_are_the_numbers_given(self, made):
        stats, given_numbers = made
        got = [Fraction(n, stats._scale) for n in np.ravel(stats._ints)]
        assert got == given_numbers

    def test_superposition_exact_values_are_fractions(self):
        stats = click_statistics(odd_coherent(1.2), DetectorConfig(6, Linear(0.8)))
        assert all(type(x) is Fraction for x in stats.exact)
        assert stats.probs == tuple(map(float, stats.exact))

    @pytest.mark.parametrize("mu", [1e4, 99999.0])
    def test_bright_superposition_stays_on_the_grid(self, mu):
        # odd coherent light on eight poly (0, 1, 0.25) diodes: no-click
        # values with binary exponents near -4.5e6 (mu = 1e4) and beyond
        # are rounded once onto the grid of the 1e-40 target, p = 165, so
        # the scale stays within p + 64 bits and the witness reads it at once
        det = ('{"N": 8, "response": {"kind": "poly", '
               '"coefficients": [0.0, 1.0, 0.25]}}')
        state = f'{{"kind": "odd_coherent", "alpha": {math.sqrt(mu)!r}}}'
        stats = click_statistics(state_from_descriptor(json.loads(state)),
                                 detector_from_descriptor(json.loads(det)))
        assert stats._scale.bit_length() <= 165 + 64
        with redirect_stdout(io.StringIO()):
            assert main(["witness", "--state", state, "--detector", det]) == 0


# --- the constructors' checks as they were made entry by entry -------------------
#
# References for the array pass of the statistics and distribution
# constructors: the per-entry loops they replaced, kept here verbatim in
# effect.  Each returns what the constructor should keep, or raises what it
# should raise, and appends the DEBUG messages it logs to `records`.


def _reference_click_numbers(flat, formal, norm_slack, what, records):
    """(cleaned floats, integers, scale) of a float table."""
    cleaned = []
    for c in flat:
        if not math.isfinite(c) or (not formal and c < -1e-12):
            raise PrecisionLoss(f"{what} probability {float(c)!r} below "
                                f"-{1e-12} or beyond float range")
        if not formal and c < 0.0:
            records.append("%s: clamping %r to 0" % (what, c))
            c = 0.0
        cleaned.append(float(c))
    pairs = [_ratio(x) for x in cleaned]
    scale = math.lcm(*{d for _, d in pairs})
    ints = [n * (scale // d) for n, d in pairs]
    try:
        total = sum(ints) / scale
    except OverflowError:
        total = math.inf if sum(ints) > 0 else -math.inf
    slack = 1e-12 + norm_slack
    if not abs(total - 1.0) <= slack:
        raise NormalizationViolation(
            f"total of {what} probabilities is {total!r}, not 1 "
            f"(allowed slack {slack:.3e})")
    return cleaned, ints, scale


def _reference_distribution(table, tail_bound):
    probs = tuple(float(p) for p in table)
    if not probs:
        raise ValueError("distribution needs at least the vacuum entry")
    if any(p < 0.0 for p in probs):
        raise ValueError("negative probability in photon-number distribution")
    if tail_bound < 0.0:
        raise ValueError("tail bound of the photon-number distribution is "
                         f"{tail_bound!r}, not a finite number >= 0")
    total = math.fsum(probs) + tail_bound
    if not abs(total - 1.0) <= 1e-12:
        raise NormalizationViolation(
            f"photon-number distribution plus tail is {total!r}, not 1 "
            f"(allowed slack {1e-12:.3e})")
    return probs


def _outcome(make):
    """make()'s value, or the class and message of what it raised."""
    try:
        return make()
    except (ArithmeticError, ValueError, PrecisionLoss,
            NormalizationViolation) as exc:
        return type(exc), str(exc)


class _Messages(logging.Handler):
    """The messages of the DEBUG records of the detector module."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())

    def __enter__(self):
        self.logger = logging.getLogger("clickstats.detector")
        self.level = self.logger.level
        self.logger.setLevel(logging.DEBUG)
        self.logger.addHandler(self)
        return self.messages

    def __exit__(self, *exc):
        self.logger.removeHandler(self)
        self.logger.setLevel(self.level)


# the float edge cases the checks must treat as the loops did: non-finite
# numbers, signed zero, subnormals, negatives either side of the -1e-12
# clamp limit, and numbers far beyond a probability (formal statistics)
_EDGES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                     -5e-324, 2.2250738585072014e-308, -1e-12,
                     -1.0000000000000002e-12, -9.999999999999999e-13,
                     1e16, -1e16, 1.7976931348623157e308]),
    st.floats(0.0, 2.2250738585072014e-308),
    st.floats(-1e-12, 0.0, exclude_min=True, exclude_max=True),
    st.floats(max_value=-1e-12, allow_infinity=False),
)


@st.composite
def _float_tables(draw, size):
    """`size` floats that sum to about one, a few of them edge cases."""
    table = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    edges = draw(st.dictionaries(st.integers(0, size - 1), _EDGES,
                                 max_size=min(size, 3)))
    rest = 1.0 - sum(x for x in edges.values() if math.isfinite(x))
    weight = math.fsum(x for i, x in enumerate(table) if i not in edges)
    if weight > 0.0 and 0.0 < rest < math.inf:
        table = [x * (rest / weight) for x in table]
    for i, x in edges.items():
        table[i] = x
    return table


class TestOnePassValidation:
    """The statistics and distribution constructors check, clamp and read
    a float table in one pass, exactly as the per-entry loops did: the same
    exception and message, the same numbers kept and read, and the same
    DEBUG clamp records."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), shape=st.one_of(
               st.integers(2, 10).map(lambda n: (n,)),
               st.tuples(st.integers(2, 5), st.integers(2, 5))),
           formal=st.booleans(), norm_slack=st.sampled_from([0.0, 1e-10]),
           as_array=st.booleans())
    def test_statistics_match_the_loop(self, data, shape, formal,
                                       norm_slack, as_array):
        table = data.draw(_float_tables(math.prod(shape)))
        what = "click" if len(shape) == 1 else "joint click"
        expected_records = []
        want = _outcome(lambda: _reference_click_numbers(
            table, formal, norm_slack, what, expected_records))
        given_table = (np.array(table) if as_array else
                       tuple(table) if len(shape) == 1 else
                       np.array(table).reshape(shape).tolist())
        if len(shape) == 1:
            def make():
                return ClickStatistics(shape[0] - 1, given_table,
                                       formal=formal, norm_slack=norm_slack)
        else:
            def make():
                return JointClickStatistics(
                    shape[0] - 1, shape[1] - 1,
                    np.reshape(given_table, shape) if as_array else given_table,
                    formal=formal, norm_slack=norm_slack)
        with _Messages() as records:
            got = _outcome(make)
        assert records == expected_records
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
            return
        cleaned, ints, scale = want
        assert np.asarray(got.probs, dtype=float).ravel().tobytes() == (
            np.array(cleaned).tobytes())
        assert np.shape(got.probs) == shape and np.shape(got._ints) == shape
        assert np.ravel(got._ints).tolist() == ints
        assert got._scale == scale

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), size=st.integers(1, 12),
           tail_bound=st.sampled_from([0.0, 1e-13, -1e-13]))
    def test_distribution_matches_the_loop(self, data, size, tail_bound):
        table = data.draw(_float_tables(size))
        want = _outcome(lambda: _reference_distribution(table, tail_bound))
        got = _outcome(lambda: PhotonNumberDistribution(table, tail_bound))
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
            return
        assert np.array(got.probs).tobytes() == np.array(want).tobytes()
        assert got._array.tobytes() == np.array(want).tobytes()
        assert not got._array.flags.writeable

    @pytest.mark.parametrize("table", [
        (0.5, "0.5"), (0.5, None), (0.5, 0.5j), np.array(["0.5", "0.5"])],
        ids=["0.5", "None", "0.5j", "string-array"])
    def test_click_numbers_must_be_real(self, table):
        # entries that are not real numbers are refused as math.isfinite
        # refuses them, not read as NaN or parsed, also inside an array
        with pytest.raises(TypeError, match="must be real number"):
            ClickStatistics(1, table)

    @pytest.mark.parametrize("N1,N2,table", [
        (0, 1, [[1.0, 0.0]]), (1, 0, [[1.0], [0.0]]),
        (1.0, 1, [[0.5, 0.5], [0.0, 0.0]])], ids=["N1=0", "N2=0", "N1=1.0"])
    def test_joint_diode_counts_are_positive_integers(self, N1, N2, table):
        # the one-bank rule on every axis, although each table has the
        # shape the counts give: a bank of no diodes, or a float count
        with pytest.raises(ValueError, match="diode count must be a positive"):
            JointClickStatistics(N1, N2, table)

    def test_caller_array_is_left_as_given(self):
        # a clamp works on a copy: the caller's arrays keep their numbers
        table = np.array([0.5, 0.5 + 1e-13, -1e-13])
        joint_table = np.array([[0.5, -1e-13], [0.5 + 1e-13, 0.0]])
        stats = ClickStatistics(2, table)
        joint = JointClickStatistics(1, 1, joint_table)
        assert stats.probs[2] == 0.0 and joint.probs[0, 1] == 0.0
        assert table[2] == -1e-13 and joint_table[0, 1] == -1e-13
        assert joint_table.flags.writeable


class TestJointStatistics:
    def test_product_state_factorizes(self):
        s1 = coherent_distribution(0.9)
        s2 = thermal_distribution(0.6)
        d1 = DetectorConfig(4, Linear(0.8))
        d2 = DetectorConfig(3, Linear(0.95))
        joint = joint_click_statistics(product_joint(s1, s2), d1, d2)
        m1 = click_statistics(s1, d1)
        m2 = click_statistics(s2, d2)
        outer = np.outer(m1.probs, m2.probs)
        assert np.max(np.abs(joint.probs - outer)) < 1e-12

    def test_vacuum_joint(self):
        joint = joint_click_statistics(
            product_joint(fock_distribution(0), fock_distribution(0)),
            DetectorConfig(4, Linear(0.8)), DetectorConfig(4, Linear(0.8)))
        assert abs(joint.probs[0, 0] - 1.0) < 1e-14

    def test_tmsv_marginals_are_thermal(self):
        xi2 = 0.36
        joint_state = tmsv_joint(math.sqrt(xi2))
        det = DetectorConfig(4, Linear(0.8))
        joint = joint_click_statistics(joint_state, det, det)
        nbar = xi2 / (1.0 - xi2)
        single = click_statistics(thermal_distribution(nbar), det)
        marg1 = joint.probs.sum(axis=1)
        marg2 = joint.probs.sum(axis=0)
        for k in range(5):
            assert abs(marg1[k] - single.probs[k]) < 1e-10
            assert abs(marg2[k] - single.probs[k]) < 1e-10

    def test_exact_path_matches_float_contraction(self):
        state = tmsv_joint(0.7)
        det = DetectorConfig(3, Linear(0.9))
        joint = joint_click_statistics(state, det, det)
        # physical kernels are floats: the table is its own exact value
        assert joint.exact is None
        # redo the contraction in plain float arithmetic from fock inputs
        probs = state.probs
        ref = np.zeros((4, 4))
        for n in range(probs.shape[0]):
            col = click_statistics(fock_distribution(n), det).probs
            for m in range(probs.shape[1]):
                if probs[n, m] == 0.0:
                    continue
                row = click_statistics(fock_distribution(m), det).probs
                ref += probs[n, m] * np.outer(col, row)
        assert np.max(np.abs(joint.probs - ref)) < 1e-11

    def test_diagonal_matches_dense_table_over_fig3_grid(self):
        # squeezed vacuum contracts its diagonal, (T1 * p) @ T2.T: byte for
        # byte the dense T1 @ P @ T2.T at every point of `figure fig3`
        fig3 = _SWEEPS["fig3"]
        ((_, (d1, d2)),) = fig3.banks
        for xi2 in fig3.grid:
            state = fig3.state_at(xi2)
            c1, c2 = state.cutoffs
            T1 = _positive_kernels(d1, _bucket(c1))[:, :c1 + 1]
            T2 = _positive_kernels(d2, _bucket(c2))[:, :c2 + 1]
            got = joint_click_statistics(state, d1, d2).probs
            dense = T1 @ state.probs @ T2.T
            assert got.tobytes() == dense.tobytes(), xi2

    def test_squeezed_vacuum_memory(self):
        # xi^2 = 0.995 keeps 6432 levels (cutoff 6431), a dense table of 331 MB; its
        # diagonal, kernel tables and click table take well under 8 MB
        det = DetectorConfig(4, Linear(0.8))
        tracemalloc.start()
        try:
            state = tmsv_joint(math.sqrt(0.995))
            joint_click_statistics(state, det, det)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.cutoffs == (6431, 6431)
        assert peak < 8e6

    def test_joint_normalized(self):
        state = tmsv_joint(0.8)
        det = DetectorConfig(4, Linear(0.8))
        joint = joint_click_statistics(state, det, det)
        assert abs(joint.probs.sum() - 1.0) <= 1e-10 + state.tail_bound

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            JointClickStatistics(2, 2, np.ones((2, 3)) / 6.0)

    def test_stderr_is_a_read_only_copy(self):
        se = np.full((2, 2), 0.1)
        joint = JointClickStatistics(1, 1, np.full((2, 2), 0.25), stderr=se)
        se[0, 0] = 1.0
        assert joint.stderr.tolist() == [[0.1, 0.1], [0.1, 0.1]]
        est = estimate_statistics(ClickHistogram(np.array([[1, 2], [3, 4]])))
        for stats in (joint, est):
            with pytest.raises(ValueError):
                stats.stderr[0, 0] = 1.0


class TestGeneratingFunction:
    def test_total_and_head(self):
        stats = click_statistics(coherent_distribution(2.0),
                                 DetectorConfig(4, Linear(0.9)))
        assert abs(generating_function(stats, 1.0) - 1.0) < 1e-10
        assert abs(generating_function(stats, 0.0) - stats.probs[0]) < 1e-15

    def test_binomial_form(self):
        # coherent input: g(z) = (1 - p + p z)^N
        N, mu, eta = 4, 2.0, 0.9
        stats = click_statistics(coherent_distribution(mu),
                                 DetectorConfig(N, Linear(eta)))
        p = 1.0 - math.exp(-eta * mu / N)
        for z in (-0.5, 0.3, 2.0):
            assert abs(generating_function(stats, z)
                       - (1.0 - p + p * z) ** N) < 1e-9


class TestMultimode:
    def test_weighted_sum(self):
        assert multimode_effective_intensity(
            (0.5, 0.25), (2.0, 4.0)) == pytest.approx(2.0)

    def test_empty_is_zero(self):
        assert multimode_effective_intensity((), ()) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            multimode_effective_intensity((0.5,), (1.0, 2.0))

    def test_negative_intensity(self):
        with pytest.raises(ValueError):
            multimode_effective_intensity((0.5,), (-1.0,))

    @pytest.mark.parametrize("etas,intensities,name", [
        (["0.9"], [2.0], "efficiency"), ([0.9], ["2"], "intensity"),
        ([b"0.9"], [2.0], "efficiency"), ([0.9], [bytearray(b"2")], "intensity"),
    ], ids=["str-eta", "str-intensity", "bytes-eta", "bytearray-intensity"])
    def test_strings_are_refused(self, etas, intensities, name):
        # multimode_effective_intensity(["0.9"], ["2"]) returned 1.8
        with pytest.raises(TypeError, match=f"^{name} must be a number, not "):
            multimode_effective_intensity(etas, intensities)

    def test_numbers_of_every_type(self):
        for eta, mu in ((Fraction(1, 2), 3), (mp.mpf(0.5), np.float32(3)),
                        (np.float64(0.5), np.int64(3))):
            assert multimode_effective_intensity((eta,), (mu,)) == 1.5

    def test_reduction_matches_single_mode(self):
        # a multimode coherent input is indistinguishable from one mode
        # carrying the effective intensity
        etas = (0.9, 0.5, 0.7)
        mus = (0.8, 1.1, 0.4)
        mu_eff = multimode_effective_intensity(etas, mus)
        det = DetectorConfig(6, Linear(1.0))
        reduced = click_statistics(coherent_distribution(mu_eff), det)
        expected = binomial_pmf(6, 1.0 - math.exp(-mu_eff / 6))
        for ck, ek in zip(reduced.probs, expected):
            assert abs(ck - ek) < 1e-12


class TestDescriptors:
    @pytest.mark.parametrize("desc,expected", [
        ({"N": 8, "response": {"kind": "linear", "eta": 0.9}},
         DetectorConfig(8, Linear(0.9))),
        ({"N": 4, "response": {"kind": "affine", "eta": 0.8, "nu": 0.1}},
         DetectorConfig(4, Affine(0.8, 0.1))),
        ({"N": 4, "response": {"kind": "power", "n0": 3}},
         DetectorConfig(4, Power(3))),
        ({"N": 2, "response": {"kind": "poly", "coefficients": [0, 1, 0.25]}},
         DetectorConfig(2, PolynomialSeries((0.0, 1.0, 0.25)))),
        ({"N": 16, "response": {"kind": "nabs", "n0": 2}},
         DetectorConfig(16, NPhotonAbsorption(2))),
    ])
    def test_round_trip(self, desc, expected):
        assert detector_from_descriptor(desc) == expected

    def test_unknown_kind(self):
        with pytest.raises(DescriptorError):
            detector_from_descriptor({"N": 4, "response": {"kind": "cubic"}})

    def test_missing_field(self):
        with pytest.raises(DescriptorError):
            detector_from_descriptor({"response": {"kind": "linear", "eta": 0.9}})

    def test_bad_value(self):
        with pytest.raises(DescriptorError):
            detector_from_descriptor(
                {"N": 4, "response": {"kind": "linear", "eta": 0.0}})

    def test_not_a_dict(self):
        with pytest.raises(DescriptorError):
            detector_from_descriptor("linear")
