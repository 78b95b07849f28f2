"""Working precision chosen once, from a bound computed before the sum.

Every cancelling sum taken in mpmath (superposition expectations, and the
one rounded number of the formal kernels, q = e^-f(0)) picks its bits from
a magnitude that bounds its rounding error and is then evaluated exactly
once; a forced precision is a floor under those bits.  Fock sums are exact
on integers and take no precision: forcing one leaves them unchanged.
These tests hold the chosen precision against a forced 1200-bit
recomputation, which is far beyond any bound used here.  Formal kernels
without a constant term round nothing and are held equal to exact
references; the float kernels of physical responses have no precision to
choose.  Both are checked against exact rational kernels in test_kernels
too.
"""

import math
from fractions import Fraction

import mpmath as mp
import pytest

from clickstats import detector
from clickstats.detector import (
    DetectorConfig,
    Linear,
    NPhotonAbsorption,
    PolynomialSeries,
    Power,
    _formal_kernels,
    _no_click_factor,
    _superposition_E,
)
from clickstats.series import (
    _ABS_TARGET,
    PowerSeries,
    _precision_for,
    auto_precision,
    diag_matrix_element,
    series_exp_neg,
)
from clickstats.states import (
    CoherentSuperposition,
    _pair_weights,
    coherent_distribution,
    fock_distribution,
    nom_expectation,
    odd_coherent,
)
from exact_kernels import fraction, poly_kernels, power_kernels

REFERENCE_BITS = 1200

RESPONSES = [
    (Power(3), 32),
    (PolynomialSeries((0.35, 0.8)), 32),
    (PolynomialSeries((0.0, 1.0, 0.25)), 32),
]
IDS = ["power3", "poly-affine", "poly-quadratic"]
# formal responses: slope 1.5 gives signed kernels, and its constant term
# a dark offset
FORMAL = [
    (Power(3), 32),
    (PolynomialSeries((0.35, 1.5)), 32),
    (PolynomialSeries((0.0, 1.0, 0.25)), 32),
]
DARK = DetectorConfig(6, PolynomialSeries((0.02, 0.82, 0.15)))


#: the absolute error target as the exact value of its mpf
TARGET = fraction(_ABS_TARGET)


def _gap(a, b):
    """Largest |a_i - b_i|, exactly, over floats, mpf or Fractions."""
    return max(abs(fraction(x) - fraction(y)) for x, y in zip(a, b))


def _kernels(det, order, prec):
    """(kernels as a flat list of Fractions, error) of `_formal_kernels`."""
    T, D, error = _formal_kernels(det, order, prec)
    return [Fraction(t, D) for t in T.flat], error


class TestPrecisionFor:
    def test_floor_when_the_bound_already_holds(self):
        assert _precision_for(mp.mpf(1), 12, 240) == 240

    def test_smallest_sufficient_bits_above_the_floor(self):
        magnitude = mp.mpf(10) ** 60
        p = _precision_for(magnitude, 12, 120)
        assert p > 120
        assert magnitude * mp.mpf(2) ** (12 - p) <= _ABS_TARGET
        assert magnitude * mp.mpf(2) ** (12 - (p - 1)) > _ABS_TARGET


class TestKernelTables:
    @pytest.mark.parametrize("resp,order", FORMAL, ids=IDS)
    def test_match_a_1200_bit_table(self, resp, order):
        # the table equals the exact reference, and one with q = e^-f(0)
        # forced to 1200 bits; with a dark offset, within 1e-40 of both
        det = DetectorConfig(4, resp)
        T, error = _kernels(det, order, None)
        R, _ = _kernels(det, order, REFERENCE_BITS)
        if isinstance(resp, Power):
            exact = power_kernels(det.N, resp.n0, order)
        else:
            exact = poly_kernels(det.N, resp.coefficients, order)
        if resp.evaluate(0.0):
            assert error == float(_ABS_TARGET)
            assert _gap(T, R) <= TARGET
            assert _gap(T, sum(exact, [])) <= TARGET
        else:
            assert error == 0.0
            assert T == R == sum(exact, [])

    def test_forced_bits_are_a_floor(self, monkeypatch):
        # q = e^-0.02 at the 53-bit floor leaves this table off by 2.7e-16,
        # so the bound (139 bits here), not the floor, carries the accuracy;
        # forcing the floor must not take it away, and forcing more bits
        # raises them and stays within 1e-40
        T, error = _kernels(DARK, 32, None)
        R, _ = _kernels(DARK, 32, REFERENCE_BITS)
        assert error == float(_ABS_TARGET)
        assert R != T
        assert _gap(T, R) <= TARGET
        assert _kernels(DARK, 32, 53)[0] == T
        monkeypatch.setattr(detector, "_precision_for", lambda *args: 53)
        floor, D, _ = _formal_kernels.__wrapped__(DARK, 32, None)
        assert _gap([Fraction(t, D) for t in floor.flat], R) > 1e-16

    def test_table_is_built_once(self, monkeypatch):
        calls = []
        original = detector._assembly

        def spy(N):
            calls.append(N)
            return original(N)

        monkeypatch.setattr(detector, "_assembly", spy)
        det = DetectorConfig(4, Power(3))
        _formal_kernels.cache_clear()
        # Fock 20 and 31 share the order-32 table
        for n in (20, 31, 20):
            detector.click_statistics(fock_distribution(n), det)
        assert len(calls) == 1
        assert _formal_kernels(det, 32, None) is _formal_kernels(det, 32, None)

    def test_response_is_checked_once(self, monkeypatch):
        # a cold coherent statistic on a poly bank takes its N+1 no-click
        # values from one call, which checks the response once (it took 17
        # checks on 16 diodes); a repeat is a cache hit and checks nothing
        calls = []
        original = detector._check_poly_positive

        def spy(resp, xmax):
            calls.append(xmax)
            return original(resp, xmax)

        monkeypatch.setattr(detector, "_check_poly_positive", spy)
        det = DetectorConfig(16, PolynomialSeries((0.0, 1.0, 0.25)))
        detector._analytic_E.cache_clear()
        for _ in range(2):
            detector.click_statistics(coherent_distribution(4.0), det)
            assert len(calls) == 1

    def test_forced_precision_below_the_bound(self):
        # forcing 280 bits under the 461 that Fock 90 on this bank needs
        # used to leave c_k off by 3.4e-12; the forced bits are now a floor
        det = DetectorConfig(4, Power(3))
        state = fock_distribution(90)
        forced = detector.click_statistics(state, det, prec=280)
        assert forced.exact == detector.click_statistics(state, det).exact

    @pytest.mark.parametrize("resp,order", RESPONSES, ids=IDS)
    def test_fock_statistics_match(self, resp, order):
        det = DetectorConfig(4, resp)
        for n in (0, 7, 20, order):
            got = detector.click_statistics(fock_distribution(n), det)
            ref = detector.click_statistics(fock_distribution(n), det,
                                            prec=REFERENCE_BITS)
            if got.exact is None:
                # float kernels of a physical response: the floats are exact
                assert ref.exact is None
                assert _gap(got.probs, ref.probs) <= TARGET
            else:
                assert _gap(got.exact, ref.exact) <= TARGET


def _superposition(*amplitudes):
    """Equal-weight superposition of the given coherent amplitudes."""
    with mp.workprec(120):
        norm = mp.re(mp.fsum(g for g, _ in _pair_weights(
            tuple((1, a) for a in amplitudes))))
    return CoherentSuperposition(tuple((float(norm) ** -0.5, a)
                                       for a in amplitudes))


def _bits_chosen(monkeypatch, state, det):
    """The bits `_superposition_E` picks for the state, by a spy."""
    picked = []
    original = detector._precision_for

    def spy(*args):
        picked.append(original(*args))
        return picked[-1]

    monkeypatch.setattr(detector, "_precision_for", spy)
    _superposition_E(state, det, None)
    monkeypatch.undo()
    return picked[0]


class TestSuperpositions:
    @pytest.mark.parametrize("resp", [NPhotonAbsorption(3)]
                             + [r for r, _ in RESPONSES] + [Linear(0.9)],
                             ids=["nabs3", "power3", "poly-affine",
                                  "poly-quadratic", "linear"])
    def test_E_matches_a_1200_bit_evaluation(self, resp):
        det = DetectorConfig(4, resp)
        for alpha2 in (0.5, 4.0):
            state = odd_coherent(math.sqrt(alpha2))
            got = _superposition_E(state, det, None)
            ref = _superposition_E(state, det, REFERENCE_BITS)
            assert len(got) == det.N + 1
            assert _gap(got, ref) <= TARGET

    @pytest.mark.parametrize("resp", [NPhotonAbsorption(3),
                                      NPhotonAbsorption(1000), Power(3),
                                      PolynomialSeries((0.35, 0.8))],
                             ids=["nabs3", "nabs1000", "power3", "poly-affine"])
    def test_bounds_cover_every_pair(self, resp):
        # complex cross amplitudes, where B(x) of n-photon absorption can
        # cancel: W bounds |exp[-f(x)]| and |e^-x| sum_j |x^j/j!|, and F
        # bounds |f(x)|, pair by pair; the sum then meets the target
        state = _superposition(1.5, 1.5j, -0.9 + 0.4j)
        det = DetectorConfig(4, resp)
        with mp.workprec(53):
            pairs = _pair_weights(state.terms)
            bounds = [_no_click_factor(resp, z / det.N)[1:] for _, z in pairs]
        with mp.workprec(REFERENCE_BITS):
            for (_, z), (W, F) in zip(pairs, bounds):
                x = mp.mpc(z) / det.N
                w = abs(_no_click_factor(resp, x)[0])
                assert w <= W * (1 + 1e-15)
                if isinstance(resp, NPhotonAbsorption):
                    parts = abs(mp.exp(-x)) * mp.fsum(
                        abs(x) ** j / mp.factorial(j) for j in range(resp.n0))
                    assert parts <= W * (1 + 1e-15) and abs(x) <= F
                else:
                    assert abs(resp.evaluate(x)) <= F * (1 + 1e-15)
        got = _superposition_E(state, det, None)
        assert _gap(got, _superposition_E(state, det, REFERENCE_BITS)) \
            <= TARGET

    def test_absorption_sums_stop_at_the_working_precision(self):
        # on odd coherent light of alpha = 1 the terms x^j/j! of n-photon
        # absorption fall below the working precision long before j = 200,
        # so order 100000 sums no more terms than order 200 (it used to sum
        # them all, about two minutes) and gives exactly the same statistics
        state = odd_coherent(1.0)
        got, want = (detector.click_statistics(
            state, DetectorConfig(2, NPhotonAbsorption(n0)))
            for n0 in (100000, 200))
        assert got.exact == want.exact
        assert got.probs == want.probs
        assert got.exact_error == want.exact_error

    def test_large_amplitude_on_linear_diodes(self):
        # |alpha|^2 = 100 on two linear diodes: the truncated series needed
        # more than 240 bits here, as its terms grew to e^100 and cancelled;
        # the closed form has no such terms, so the floor meets the target
        state = odd_coherent(10.0)
        det = DetectorConfig(2, Linear(1.0))
        ref = _superposition_E(state, det, REFERENCE_BITS)
        for forced in (240, None):
            assert _gap(_superposition_E(state, det, forced), ref) \
                <= TARGET

    def test_large_terms_raise_the_precision(self, monkeypatch):
        # |alpha|^2 = 16 on four cubic absorbers: E_4 is -1.9e97, which 240
        # bits hold only to 1e25; the bound raises the bits (to 477), and a
        # forced 240 is only a floor
        state = odd_coherent(4.0)
        det = DetectorConfig(4, Power(3))
        ref = _superposition_E(state, det, REFERENCE_BITS)
        bits = _bits_chosen(monkeypatch, state, det)
        assert 240 < bits < REFERENCE_BITS
        monkeypatch.setattr(detector, "_precision_for", lambda *args: 240)
        assert _gap(_superposition_E(state, det, None), ref) > 1e-35
        monkeypatch.undo()
        for forced in (240, None):
            assert _gap(_superposition_E(state, det, forced), ref) \
                <= TARGET

    def test_formal_statistics_at_large_amplitude(self):
        # c_k near 1e97 used to be assembled at a fixed 240 bits, which left
        # a total of 3.9e25; the assembly now takes its bits from a bound
        state = odd_coherent(4.0)
        det = DetectorConfig(4, Power(3))
        got = detector.click_statistics(state, det)
        ref = detector.click_statistics(state, det, prec=REFERENCE_BITS)
        assert float(got.exact[4]) == pytest.approx(-1.914097e97, rel=1e-6)
        assert _gap(got.exact, ref.exact) <= TARGET


class TestFockSums:
    # sum_k C(n,k) (-2)^k = (-1)^n cancels from 3^n, which lies above the
    # bound of the floor precision at n = 120; the exact sum needs none
    n = 120

    def series(self):
        return series_exp_neg(PowerSeries((0.0, 2.0)), s=1.0, order=self.n,
                              prec=REFERENCE_BITS)

    def test_the_case_needs_more_than_the_floor(self):
        floor = auto_precision(self.n)
        guard = 4 + (self.n + 1).bit_length()
        assert _precision_for(mp.mpf(3) ** self.n, guard, floor) > floor

    def test_diag_matrix_element(self):
        h = self.series()
        assert diag_matrix_element(h, self.n) == 1.0
        assert diag_matrix_element(h, self.n) == diag_matrix_element(
            h, self.n, prec=REFERENCE_BITS)

    def test_nom_expectation(self):
        h = self.series()
        state = fock_distribution(self.n)
        assert nom_expectation(state, h) == 1.0
        assert nom_expectation(state, h) == nom_expectation(
            state, h, prec=REFERENCE_BITS)
