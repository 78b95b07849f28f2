"""Working precision chosen once, from a bound computed before the sum.

Every cancelling sum (kernel tables of formal responses, Fock sums,
superposition expectations) picks its bits from a magnitude that bounds its
rounding error and is then evaluated exactly once; a forced precision is a
floor under those bits.  These tests hold the chosen precision against a
forced 1200-bit recomputation, which is far beyond any bound used here.
The float kernels of physical responses have no precision to choose; they
are held against exact rational kernels in test_kernels.
"""

import math

import mpmath as mp
import pytest

from clickstats import detector
from clickstats.detector import (
    DetectorConfig,
    Linear,
    NPhotonAbsorption,
    PolynomialSeries,
    Power,
    _click_kernels,
    _exp_series,
    _majorant_exponent,
    _scaled_response_coeffs,
    _superposition_E,
)
from clickstats.series import (
    _ABS_TARGET,
    PowerSeries,
    _exp_neg_lists,
    _majorant_lists,
    _precision_for,
    auto_precision,
    diag_matrix_element,
    series_exp_neg,
)
from clickstats.states import (
    _superposition_expectation,
    fock_distribution,
    nom_expectation,
    odd_coherent,
)

REFERENCE_BITS = 1200

RESPONSES = [
    (Power(3), 32),
    (PolynomialSeries((0.35, 0.8)), 32),
    (PolynomialSeries((0.0, 1.0, 0.25)), 32),
]
IDS = ["power3", "poly-affine", "poly-quadratic"]


def _gap(a, b):
    with mp.workprec(REFERENCE_BITS + 100):
        return max(abs(x - y) for x, y in zip(a, b))


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
    @pytest.mark.parametrize("resp,order", RESPONSES, ids=IDS)
    def test_match_a_1200_bit_table(self, resp, order):
        det = DetectorConfig(4, resp)
        p, T = _click_kernels(det, order)
        _, R = _click_kernels(det, order, REFERENCE_BITS)
        assert p < REFERENCE_BITS
        gap = max(_gap(row, ref) for row, ref in zip(T, R))
        assert gap <= _ABS_TARGET

    def test_forced_bits_are_a_floor(self):
        # at the floor precision this table is wrong in the fourth digit, so
        # the bound, not the floor, carries the accuracy, and forcing the
        # floor must not take it away
        det = DetectorConfig(4, Power(3))
        order, floor = 96, auto_precision(96)
        p, T = _click_kernels(det, order)
        assert p > floor
        with mp.workprec(floor):
            fc = _scaled_response_coeffs(det.response, det.N, order)
            K = detector._diag_table(
                [_exp_neg_lists(fc, s, order) for s in range(det.N + 1)], order)
            floor_table = detector._binomial_assembly(det.N, K)
        _, R = _click_kernels(det, order, REFERENCE_BITS)
        assert max(_gap(row, ref) for row, ref in zip(floor_table, R)) > 1e-6
        forced_p, forced = _click_kernels(det, order, floor)
        assert forced_p == p
        assert forced.tolist() == T.tolist()

    def test_table_is_built_once(self, monkeypatch):
        calls = []
        original = detector._diag_table

        def spy(h_lists, order):
            calls.append(mp.mp.prec)
            return original(h_lists, order)

        monkeypatch.setattr(detector, "_diag_table", spy)
        det = DetectorConfig(4, Power(3))
        p, _ = _click_kernels.__wrapped__(det, 32)
        # a table whose bound lies above the floor is still built once
        assert p > auto_precision(32)
        assert calls == [p]

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
            assert _gap(got.exact, ref.exact) <= _ABS_TARGET


class TestSuperpositions:
    @pytest.mark.parametrize("resp", [NPhotonAbsorption(3)]
                             + [r for r, _ in RESPONSES] + [Linear(0.9)],
                             ids=["nabs3", "power3", "poly-affine",
                                  "poly-quadratic", "linear"])
    def test_E_matches_a_1200_bit_evaluation(self, resp):
        det = DetectorConfig(4, resp)
        for alpha2 in (0.5, 4.0):
            state = odd_coherent(math.sqrt(alpha2))
            for s in range(det.N + 1):
                got = _superposition_E(state, det, s, None)
                ref = _superposition_E(state, det, s, REFERENCE_BITS)
                assert _gap([got], [ref]) <= _ABS_TARGET

    @pytest.mark.parametrize("resp", [NPhotonAbsorption(3), Power(3),
                                      PolynomialSeries((0.35, 0.8))],
                             ids=["nabs3", "power3", "poly-affine"])
    def test_bound_covers_the_majorant_sum(self, resp):
        # the bound that picks the bits dominates, pair by pair, the positive
        # majorant's sum at |z_ij|, which dominates the |h_k z_ij^k| sums
        det = DetectorConfig(4, resp)
        state = odd_coherent(1.5)
        weight = sum(abs(c) for c, _ in state.terms) ** 2
        with mp.workprec(240):
            fc = _scaled_response_coeffs(resp, det.N, 64)
            for s in range(det.N + 1):
                h = _exp_series(det, s, 64, 240).coefficients
                hmaj = PowerSeries(tuple(_majorant_lists(fc, s, 64)))
                assert all(abs(a) <= m for a, m in zip(h, hmaj.coefficients))
                majorant = mp.mpf(0)
                for ci, ai in state.terms:
                    for cj, aj in state.terms:
                        r = abs(mp.conj(mp.mpc(ai)) * mp.mpc(aj))
                        majorant += abs(ci * cj) * hmaj.evaluate(r)
                # the bound is taken at 53 bits; at s = 0 both are the weight
                g = _majorant_exponent(det, 64, state.max_intensity)
                bound = weight * mp.exp(s * g)
                assert 0 < majorant <= bound * (1 + 1e-15)

    def test_large_amplitude_raises_the_precision(self):
        # |alpha|^2 = 100 on two linear diodes: the s = 2 sum cancels from
        # e^100 down to zero, which 240 bits cannot resolve to 1e-40; a
        # forced 240 is only a floor, so the bound still raises it
        state = odd_coherent(10.0)
        det = DetectorConfig(2, Linear(1.0))
        ref = _superposition_E(state, det, 2, REFERENCE_BITS)
        with mp.workprec(240):
            at_240, _ = _superposition_expectation(
                state.terms, _exp_series(det, 2, 512, 240))
        assert _gap([at_240], [ref]) > 1e-35
        for forced in (240, None):
            got = _superposition_E(state, det, 2, forced)
            assert _gap([got], [ref]) <= _ABS_TARGET


class TestFockSums:
    # sum_k C(n,k) (-2)^k = (-1)^n cancels from 3^n, which lies above the
    # bound of the floor precision at n = 120
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
