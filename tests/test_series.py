import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from clickstats.errors import NegativeConstantTerm, OrderTooLow
from clickstats.series import (
    PowerSeries,
    diag_matrix_element,
    falling_factorial,
    series_add,
    series_exp_neg,
    series_mul,
)
from clickstats.states import PhotonNumberDistribution, nom_expectation
from exact_kernels import fraction


def expm_series(order, scale=1.0, prefactor=1.0):
    # coefficients of prefactor * exp(-scale*x)
    return PowerSeries(tuple(prefactor * (-scale) ** k / math.factorial(k)
                             for k in range(order + 1)))


class TestArithmetic:
    def test_add_basic(self):
        a = PowerSeries((1.0, 1.0))
        b = PowerSeries((0.0, 2.0))
        assert series_add(a, b).coefficients == (1.0, 3.0)

    def test_add_identity(self):
        a = PowerSeries((0.5, -1.25, 3.0))
        z = PowerSeries((0.0,))
        assert series_add(a, z).coefficients == a.coefficients

    def test_add_pads_shorter(self):
        a = PowerSeries((1.0,))
        b = PowerSeries((0.0, 0.0, 4.0))
        assert series_add(a, b).coefficients == (1.0, 0.0, 4.0)

    def test_mul_conjugate_pair(self):
        a = PowerSeries((1.0, 1.0))
        b = PowerSeries((1.0, -1.0))
        got = series_mul(a, b, order=2)
        assert got.coefficients == (1.0, 0.0, -1.0)

    def test_mul_exp_cancellation(self):
        order = 8
        em = expm_series(order, 1.0)
        ep = expm_series(order, -1.0)
        got = series_mul(em, ep, order=order)
        assert abs(got.coefficients[0] - 1.0) < 1e-12
        assert all(abs(c) < 1e-12 for c in got.coefficients[1:])

    def test_mul_one_plus_x_times_exp(self):
        # closed form: coefficients of (1+x)e^{-x} are (-1)^k (1-k)/k!
        got = series_mul(PowerSeries((1.0, 1.0)), expm_series(4), order=4)
        want = (1.0, 0.0, -0.5, 1.0 / 3.0, -1.0 / 8.0)
        assert got.coefficients == pytest.approx(want, abs=1e-15)

    def test_evaluate_horner(self):
        p = PowerSeries((2.0, 0.0, 1.0))  # 2 + x^2
        assert p.evaluate(3.0) == pytest.approx(11.0)


class TestExpNeg:
    def test_plain_exponential(self):
        h = series_exp_neg(PowerSeries((0.0, 1.0)), s=1.0, order=10)
        for k, c in enumerate(h.coefficients):
            assert float(c) == pytest.approx((-1.0) ** k / math.factorial(k), rel=1e-14)

    def test_two_photon_absorption_response(self):
        # f(x) = x - log(1+x) has coefficients x^2/2 - x^3/3 + x^4/4 - ...
        order = 6
        f = PowerSeries((0.0, 0.0) + tuple((-1.0) ** j / j for j in range(2, order + 1)))
        h = series_exp_neg(f, s=1.0, order=order)
        # exp(-f) = (1+x)e^{-x}
        want = [(-1.0) ** k * (1 - k) / math.factorial(k) for k in range(order + 1)]
        got = [float(c) for c in h.coefficients]
        assert got == pytest.approx(want, abs=1e-15)

    def test_constant_offset_factors_out(self):
        h = series_exp_neg(PowerSeries((2.0, 1.0)), s=1.0, order=8)
        want = expm_series(8, 1.0, math.exp(-2.0))
        for a, b in zip(h.coefficients, want.coefficients):
            assert float(a) == pytest.approx(b, rel=1e-13)

    def test_against_sympy_expansion(self):
        # messier composite: exp(-2*(x + x^2/4)), symbolic oracle to order 6
        x = sympy.symbols("x")
        expr = sympy.exp(-2 * (x + x**2 / 4))
        want = [float(expr.series(x, 0, 7).removeO().coeff(x, k)) for k in range(7)]
        h = series_exp_neg(PowerSeries((0.0, 1.0, 0.25)), s=2.0, order=6)
        got = [float(c) for c in h.coefficients]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_scale_enters_linearly_in_exponent(self):
        f = PowerSeries((0.0, 0.7, 0.1))
        h2 = series_exp_neg(f, s=2.0, order=12)
        h1 = series_exp_neg(f, s=1.0, order=12)
        prod = series_mul(h1, h1, order=12)
        for a, b in zip(h2.coefficients, prod.coefficients):
            assert float(a) == pytest.approx(float(b), rel=1e-12, abs=1e-20)

    def test_rejects_negative_offset(self):
        with pytest.raises(NegativeConstantTerm):
            series_exp_neg(PowerSeries((-0.1, 1.0)), s=1.0)

    def test_rejects_negative_order(self):
        # it returned a one-term series
        with pytest.raises(ValueError, match="order must be >= 0, got -3"):
            series_exp_neg(PowerSeries((0.0, 1.0)), 1.0, -3)

    @pytest.mark.parametrize("coeffs,s,name", [
        ((math.nan, 1.0), 1.0, "coefficient 0 of f"),
        ((0.0, 1.0, math.inf), 1.0, "coefficient 2 of f"),
        ((0.0, mp.mpf("-inf")), 1.0, "coefficient 1 of f"),
        ((0.0, 1.0), math.nan, "s"),
        ((0.5, 1.0), -math.inf, "s"),
    ], ids=["nan-offset", "inf-coefficient", "mpf-inf", "nan-s", "inf-s"])
    def test_rejects_non_finite_input(self, coeffs, s, name):
        # these gave all-NaN or infinite series
        with pytest.raises(ValueError, match=f"^{name} is "):
            series_exp_neg(PowerSeries(coeffs), s, 4)


def exp_neg_fractions(coeffs, s, order):
    """exp[-s (f(x) - f(0))] through `order` in Fractions, from h' = -s f' h:
    k h_k = -s sum_j j f_j h_(k-j)."""
    f = [fraction(c) for c in coeffs] + [Fraction(0)] * order
    h = [Fraction(1)]
    for k in range(1, order + 1):
        h.append(-s * sum(j * f[j] * h[k - j] for j in range(1, k + 1)) / k)
    return h


class TestExactSeries:
    """series_exp_neg rounds each exact coefficient once, and Fock sums are
    the exact sums of the numbers given, rounded once to a float."""

    @settings(max_examples=60, deadline=None)
    @given(f0=st.floats(0.0, 3.0), tail=st.lists(st.floats(-4.0, 4.0),
                                                  max_size=20),
           s=st.integers(0, 256).map(lambda i: i / 64),
           prec=st.sampled_from([64, 200]))
    def test_exp_neg_rounded_once(self, f0, tail, s, prec):
        order = len(tail)
        h = series_exp_neg(PowerSeries((f0, *tail)), s, prec=prec)
        with mp.workprec(prec + 64):
            dark = fraction(mp.exp(-mp.mpf(s) * f0))
        exact = exp_neg_fractions((f0, *tail), Fraction(s), order)
        for got, want in zip(h.coefficients, exact):
            # half a unit in the last of prec bits, and the rounding of
            # e^(-s f(0)) 10 bits below it
            want *= dark
            assert abs(fraction(got) - want) <= (Fraction(101, 100 << prec)
                                                 * abs(want))

    @settings(max_examples=60, deadline=None)
    @given(tail=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=20),
           weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=21),
           s=st.integers(0, 256).map(lambda i: i / 64),
           prec=st.sampled_from([64, 200]))
    def test_fock_sums_exact(self, tail, weights, s, prec):
        h = series_exp_neg(PowerSeries((0.0, *tail)), s, prec=prec)
        exact = [fraction(c) for c in h.coefficients]

        def fock(n):
            return sum(c * math.perm(n, k) for k, c in enumerate(exact))

        for n in range(h.order + 1):
            assert diag_matrix_element(h, n, prec) == float(fock(n))
        total = math.fsum(weights[:h.order + 1])
        if total > 0.0:
            probs = [w / total for w in weights[:h.order + 1]]
            state = PhotonNumberDistribution(tuple(probs))
            want = sum(Fraction(p) * fock(n) for n, p in enumerate(probs))
            assert nom_expectation(state, h, prec) == float(want)


class TestFallingFactorial:
    @pytest.mark.parametrize("n,k,want", [(5, 2, 20), (3, 5, 0), (8, 8, 40320),
                                          (7, 0, 1), (0, 0, 1), (0, 3, 0)])
    def test_values(self, n, k, want):
        assert falling_factorial(n, k) == want

    def test_factorial_ratio(self):
        for n in range(0, 30):
            for k in range(0, n + 1):
                assert falling_factorial(n, k) == math.factorial(n) // math.factorial(n - k)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            falling_factorial(-1, 2)


class TestDiagMatrixElement:
    def test_binomial_identity_spot(self):
        h = expm_series(10, 0.3)
        assert diag_matrix_element(h, 4) == pytest.approx(0.7**4, abs=1e-14)
        assert 0.7**4 == pytest.approx(0.2401)

    def test_vacuum_picks_constant(self):
        h = PowerSeries((0.375, 2.0, -1.0))
        assert diag_matrix_element(h, 0) == pytest.approx(0.375)

    def test_two_photon_response_blind_to_single_photon(self):
        f = PowerSeries((0.0, 0.0) + tuple((-1.0) ** j / j for j in range(2, 7)))
        h = series_exp_neg(f, s=1.0, order=6)
        assert diag_matrix_element(h, 1) == pytest.approx(1.0, abs=1e-14)

    def test_binomial_identity_deep(self):
        # sum_k C(n,k)(-g)^k = (1-g)^n survives massive cancellation:
        # this is the identity the whole detector model leans on.  The series
        # must come from series_exp_neg -- coefficients pre-rounded to double
        # cannot cancel below ~1e-16 times the positive part.
        for g in (0.1, 0.5, 0.9, 0.99, 1.0):
            h = series_exp_neg(PowerSeries((0.0, float(g))), s=1.0, order=60)
            for n in (0, 1, 7, 23, 42, 60):
                want = (1.0 - g) ** n
                assert diag_matrix_element(h, n) == pytest.approx(want, abs=1e-12), (g, n)

    def test_linearity_in_series(self):
        rng = np.random.default_rng(1234)
        ca = rng.standard_normal(9)
        cb = rng.standard_normal(9)
        a = PowerSeries(tuple(ca))
        b = PowerSeries(tuple(cb))
        combo = PowerSeries(tuple(2.0 * x + 3.0 * y for x, y in zip(ca, cb)))
        for n in range(9):
            want = 2.0 * diag_matrix_element(a, n) + 3.0 * diag_matrix_element(b, n)
            assert diag_matrix_element(combo, n) == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_order_too_low(self):
        with pytest.raises(OrderTooLow):
            diag_matrix_element(PowerSeries((1.0, -0.5)), 2)

    def test_double_precision_would_fail_here(self):
        # same sum in float64 for contrast: at n = 50, g = 0.9 the naive
        # alternating sum is pure noise, the library value is exact.
        g, n = 0.9, 50
        naive = math.fsum(math.comb(n, k) * (-g) ** k for k in range(n + 1))
        exact = (1.0 - g) ** n
        h = series_exp_neg(PowerSeries((0.0, g)), s=1.0, order=60)
        got = diag_matrix_element(h, n)
        assert got == pytest.approx(exact, rel=1e-10)
        assert abs(naive - exact) > 1e6 * max(abs(exact), 1e-300)
