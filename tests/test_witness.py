"""Moment extraction and nonclassicality criteria.

Oracles: binomial factorial moments in closed form; the single-photon
statistics (1-eta, eta, 0, ...) collapse everything to two entries; the
photon-added thermal state has the closed no-click expectation
E(s) = (1-c)/(1+c*nbar)^2 at c = s*eta/N (geometric series of the kernel
identity <n|:exp(-c nhat):|n> = (1-c)^n), which feeds an independent
mpmath matrix pipeline for minor values.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clickstats import (
    ClickStatistics,
    DetectorConfig,
    JointClickStatistics,
    Linear,
    NPhotonAbsorption,
    Power,
    click_statistics,
    coherent_distribution,
    fock_distribution,
    joint_click_statistics,
    mixture_joint,
    odd_coherent,
    product_joint,
    spats_distribution,
    thermal_distribution,
    tmsv_joint,
)
from clickstats.errors import (
    DegenerateMean,
    InsufficientOrder,
    NormalizationViolation,
    OrderExceedsDiodes,
    PrecisionLoss,
)
from clickstats.witness import (
    JointPiMoments,
    MomentMatrix,
    PiMoments,
    cross_correlation_minor,
    factorial_moment,
    joint_moment_matrix,
    joint_pi_moments,
    leading_principal_minors,
    min_eigenvalue,
    moment_matrix,
    pi_moments,
    qb_parameter,
    witness_report,
    _basis,
)
from exact_kernels import fraction, linear_kernel, nabs_kernel


def binomial_stats(N, p):
    probs = tuple(math.comb(N, k) * p**k * (1 - p) ** (N - k)
                  for k in range(N + 1))
    return ClickStatistics(N, probs)


def spats_pi_oracle(nbar, eta, N):
    """Independent moment pipeline from the closed-form E(s)."""
    with mp.workprec(300):
        def E(s):
            c = mp.mpf(s) * mp.mpf(eta) / N
            return (1 - c) / (1 + c * mp.mpf(nbar)) ** 2
        return [mp.fsum(math.comb(m, j) * (-1) ** j * E(j)
                        for j in range(m + 1)) for m in range(N + 1)]


def spats_minors_oracle(nbar, eta, N):
    vals = spats_pi_oracle(nbar, eta, N)
    d = N // 2 + 1
    with mp.workprec(300):
        M = mp.matrix(d, d)
        for i in range(d):
            for j in range(d):
                M[i, j] = vals[i + j]
        return [float(mp.det(M[:k, :k])) for k in range(1, d + 1)]


class TestFactorialMoment:
    def test_zeroth_is_one(self):
        stats = binomial_stats(6, 0.4)
        assert factorial_moment(stats, 0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_binomial_closed_form(self, m):
        N, p = 8, 0.35
        stats = binomial_stats(N, p)
        expected = math.perm(N, m) * p**m
        assert abs(factorial_moment(stats, m) - expected) < 1e-12

    def test_single_photon_second_vanishes(self):
        stats = ClickStatistics(8, (0.1, 0.9) + (0.0,) * 7)
        assert factorial_moment(stats, 2) == 0.0

    def test_order_above_bank_size(self):
        with pytest.raises(OrderExceedsDiodes):
            factorial_moment(binomial_stats(4, 0.5), 5)

    def test_negative_order(self):
        with pytest.raises(ValueError):
            factorial_moment(binomial_stats(4, 0.5), -1)


class TestPiMoments:
    def test_vacuum(self):
        stats = click_statistics(fock_distribution(0),
                                 DetectorConfig(6, Linear(0.9)))
        mom = pi_moments(stats)
        assert mom.values[0] == pytest.approx(1.0, abs=1e-14)
        assert all(abs(v) < 1e-14 for v in mom.values[1:])

    def test_single_photon_closed_form(self):
        N, eta = 8, 0.9
        stats = click_statistics(fock_distribution(1),
                                 DetectorConfig(N, Linear(eta)))
        mom = pi_moments(stats)
        assert abs(mom.values[1] - eta / N) < 1e-15
        assert all(abs(v) < 1e-15 for v in mom.values[2:])

    @pytest.mark.parametrize("m", range(9))
    def test_coherent_powers(self, m):
        N, eta, mu = 8, 0.9, 1.3
        stats = click_statistics(coherent_distribution(mu),
                                 DetectorConfig(N, Linear(eta)))
        mom = pi_moments(stats)
        expected = (1.0 - math.exp(-eta * mu / N)) ** m
        assert abs(mom.values[m] - expected) < 1e-12

    def test_physical_range(self):
        for state in (thermal_distribution(2.0), spats_distribution(1.1)):
            stats = click_statistics(state, DetectorConfig(8, Linear(0.8)))
            mom = pi_moments(stats)
            assert all(-1e-9 <= v <= 1 + 1e-9 for v in mom.values)

    def test_bad_zeroth_entry(self):
        with pytest.raises(NormalizationViolation):
            PiMoments((0.9, 0.1), 1)

    def test_matches_summation_loop(self):
        # the per-order loop over exact rationals as reference: the moments
        # are the exact values of the statistics' numbers, exact Fractions
        # of a formal response or floats, and their floats are those values
        # rounded once; floats summed in matrix order stay within a few ulp
        N = 8
        stats = click_statistics(spats_distribution(0.7),
                                 DetectorConfig(N, Linear(0.9)))
        assert stats.exact is None
        floats = ClickStatistics(N, stats.probs)
        formal = click_statistics(fock_distribution(20),
                                  DetectorConfig(N, Power(2)))
        for numbers, given in ((stats.probs, stats), (floats.probs, floats),
                               (formal.exact, formal)):
            c = [fraction(x) for x in numbers]
            ref = tuple(sum(math.perm(k, m) * c[k] for k in range(m, N + 1))
                        / math.perm(N, m) for m in range(N + 1))
            mom = pi_moments(given)
            assert mom.exact == ref
            assert mom.values == tuple(map(float, ref))
        ref = [math.fsum(math.perm(k, m) * c for k, c in
                         enumerate(floats.probs) if k >= m) / math.perm(N, m)
               for m in range(N + 1)]
        np.testing.assert_allclose(pi_moments(floats).values, ref,
                                   rtol=0, atol=4 * N * 2.0 ** -52)


class TestNormSlack:
    """The zeroth moment may fall short of one by the state's tail."""

    def test_truncated_state_within_its_tail(self):
        # tol 1e-11 leaves a tail of 7.3e-12, well beyond the bare 1e-12
        state = thermal_distribution(1.0, tol=1e-11)
        stats = click_statistics(state, DetectorConfig(8, Linear(0.9)))
        assert stats.norm_slack == state.tail_bound > 1e-12
        mom = pi_moments(stats)
        assert mom.norm_slack == stats.norm_slack
        assert abs(mom.values[0] - 1.0) > 1e-12
        M = moment_matrix(mom, 8)
        assert M.norm_slack == stats.norm_slack
        assert witness_report(stats).verdict == "consistent-with-classical"

    def test_slack_is_added_to_the_bare_tolerance(self):
        PiMoments((1.0 - 5e-12, 0.5), 1, norm_slack=4.5e-12)
        with pytest.raises(NormalizationViolation):
            PiMoments((1.0 - 5e-12, 0.5), 1, norm_slack=3.5e-12)
        with pytest.raises(NormalizationViolation):
            PiMoments((1.0 + 2e-11, 0.5), 1, norm_slack=1e-11)

    def test_joint_and_matrix_checks(self):
        vals = np.array([[1.0 - 5e-12, 0.1], [0.1, 0.05]])
        JointPiMoments(vals, (1, 1), norm_slack=5e-12)
        with pytest.raises(NormalizationViolation):
            JointPiMoments(vals, (1, 1), norm_slack=3e-12)
        MomentMatrix(vals, (0, 1), norm_slack=5e-12)
        with pytest.raises(NormalizationViolation):
            MomentMatrix(vals, (0, 1))

    def test_nan_never_passes(self):
        with pytest.raises(NormalizationViolation):
            PiMoments((math.nan, 0.5), 1, norm_slack=1.0)
        with pytest.raises(ValueError, match="symmetric"):
            MomentMatrix(np.array([[math.nan, 0.0], [0.0, 1.0]]), (0, 1))


class TestBuiltAsChecked:
    """Moments and matrices the library builds from checked statistics are
    taken as built; those a caller builds keep every check."""

    @pytest.mark.parametrize("make,error,match", [
        (lambda: PiMoments((1.0, math.nan), 1, norm_slack=math.nan),
         NormalizationViolation, "zeroth moment"),
        (lambda: JointPiMoments(np.array([[math.nan, 0.1], [0.1, 0.0]]),
                                (1, 1)), NormalizationViolation, "moment"),
        (lambda: MomentMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]), (0, 1)),
         ValueError, "symmetric"),
        (lambda: MomentMatrix(np.array([[1.0, math.nan], [math.nan, 1.0]]),
                              (0, 1)), ValueError, "symmetric"),
        (lambda: ClickStatistics(1, (math.nan, 1.0)), PrecisionLoss,
         "beyond float range"),
        (lambda: JointClickStatistics(1, 1, [[0.5, 0.5], [math.nan, 0.0]]),
         PrecisionLoss, "beyond float range"),
    ], ids=["pi", "joint-pi", "asymmetric", "nan-matrix", "click",
            "joint-click"])
    def test_caller_input_is_checked(self, make, error, match):
        with pytest.raises(error, match=match):
            make()

    def test_single_bank_equals_the_checked_containers(self):
        stats = click_statistics(spats_distribution(0.7, tol=1e-11),
                                 DetectorConfig(8, Linear(0.9)))
        mom = pi_moments(stats)
        assert mom == PiMoments(mom.values, mom.max_order, exact=mom.exact,
                                formal=mom.formal, norm_slack=mom.norm_slack)
        assert all(type(v) is float for v in mom.values)
        M = moment_matrix(mom, 8)
        self.assert_matrix_checked(M)

    def test_two_banks_equal_the_checked_containers(self):
        det = DetectorConfig(4, Linear(0.8))
        mom = joint_pi_moments(joint_click_statistics(tmsv_joint(0.6), det,
                                                      det))
        checked = JointPiMoments(mom.values, mom.max_orders, exact=mom.exact,
                                 formal=mom.formal, norm_slack=mom.norm_slack)
        assert mom.values.tobytes() == checked.values.tobytes()
        assert mom.values.dtype == float and not mom.values.flags.writeable
        assert (mom.max_orders, mom.exact, mom.formal, mom.norm_slack) == (
            checked.max_orders, checked.exact, checked.formal,
            checked.norm_slack)
        self.assert_matrix_checked(joint_moment_matrix(mom, 4, 4))

    @staticmethod
    def assert_matrix_checked(M):
        checked = MomentMatrix(M.entries, M.index_basis, exact=M.exact,
                               norm_slack=M.norm_slack)
        assert M.entries.tobytes() == checked.entries.tobytes()
        assert M.entries.dtype == float and not M.entries.flags.writeable
        assert (M.index_basis, M.exact, M.norm_slack) == (
            checked.index_basis, checked.exact, checked.norm_slack)
        assert type(M.index_basis) is tuple


class TestSharedTolerance:
    """Statistics and moment containers allow the same distance from one,
    so statistics that build also pass the inverse path."""

    def test_deficit_within_tolerance_reaches_the_report(self):
        stats = ClickStatistics(4, (0.5, 0.5 - 5e-13, 0.0, 0.0, 0.0))
        report = witness_report(stats)
        assert report.leading_minors[0] == pytest.approx(1.0, abs=1e-12)

    def test_larger_deficit_stops_at_the_statistics(self):
        with pytest.raises(NormalizationViolation):
            ClickStatistics(4, (0.5, 0.5 - 5e-11, 0.0, 0.0, 0.0))


class TestFormalStatistics:
    """Superlinear responses give signed click numbers far above one whose
    sum is one; the inverse path runs on their extended values."""

    def test_fock20_power2_report(self):
        stats = click_statistics(fock_distribution(20),
                                 DetectorConfig(8, Power(2)))
        assert stats.formal and max(abs(c) for c in stats.probs) > 1e4
        # the floats alone miss the normalization by more than 1e-12 ...
        assert abs(math.fsum(stats.probs) - 1.0) > 1e-12
        # ... while the extended values keep it
        assert pi_moments(stats).values[0] == pytest.approx(1.0, abs=1e-15)
        report = witness_report(stats)
        assert report.verdict == "nonclassical"
        assert report.leading_minors[0] == pytest.approx(1.0, abs=1e-15)

    def test_formal_joint_mixture_is_the_mixture_of_products(self):
        det = DetectorConfig(4, Power(2))
        weights = (0.3, 0.3, 0.4)
        pairs = ((12, 12), (12, 3), (5, 12))
        state = mixture_joint(weights, [
            product_joint(fock_distribution(a), fock_distribution(b))
            for a, b in pairs])
        stats = joint_click_statistics(state, det, det)
        assert stats.formal and stats.exact is not None
        single = {n: click_statistics(fock_distribution(n), det).exact
                  for n in (3, 5, 12)}
        for k1 in range(5):
            for k2 in range(5):
                want = sum(Fraction(w) * single[a][k1] * single[b][k2]
                           for w, (a, b) in zip(weights, pairs))
                assert stats.exact[k1][k2] == want
        assert np.abs(stats.probs).max() > 1e4
        report = witness_report(stats)
        assert joint_pi_moments(stats).values[0, 0] == pytest.approx(
            1.0, abs=1e-15)
        assert math.isfinite(report.cross_minor)


class TestRoundTrip:
    """Forward statistics and direct state moments must agree.

    The direct side evaluates <:(1 - exp[-s f(n/N)])^m:> per state family:
    closed form for coherent light, intensity-weight integrals for thermal
    and photon-added thermal light, a two-term finite sum for Fock-1, and
    the two-amplitude bracket for the odd coherent state.
    """

    N = 8
    ETA = 0.9

    def _direct(self, kind, param, resp, m):
        N = self.N
        with mp.workprec(260):
            def G(x):
                if isinstance(resp, Linear):
                    fx = mp.mpf(resp.eta) * x / N
                elif isinstance(resp, Power):
                    fx = (x / N) ** resp.n0
                else:
                    part = mp.fsum((x / N) ** j / mp.factorial(j)
                                   for j in range(resp.n0))
                    fx = x / N - mp.log(part)
                return (1 - mp.exp(-fx)) ** m
            if kind == "coherent":
                return float(G(mp.mpf(param)))
            if kind == "thermal":
                nb = mp.mpf(param)
                return float(mp.quad(lambda x: mp.exp(-x / nb) * G(x),
                                     [0, nb, 10 * nb, mp.inf]) / nb)
            if kind == "spats":
                nb = mp.mpf(param)
                return float(mp.quad(
                    lambda x: mp.exp(-x / nb) * ((1 + nb) * x - nb) * G(x),
                    [0, nb, 10 * nb, mp.inf]) / nb ** 3)
            if kind == "fock1":
                # <1|:exp(-s f(n/N)):|1> = 1 - s f'(0)/N
                fp = resp.eta if isinstance(resp, Linear) else 0.0
                return float(mp.fsum(
                    math.comb(m, j) * (-1) ** j * (1 - j * mp.mpf(fp) / N)
                    for j in range(m + 1)))
            if kind == "odd":
                mu = mp.mpf(param)
                return float((G(mu) - mp.exp(-2 * mu) * G(-mu))
                             / (1 - mp.exp(-2 * mu)))
            raise AssertionError(kind)

    @pytest.mark.parametrize("resp", [Linear(0.9), Power(3),
                                      NPhotonAbsorption(3)],
                             ids=["linear", "cubic", "nabs3"])
    @pytest.mark.parametrize("kind,param,state_of", [
        ("coherent", 1.7, lambda p: coherent_distribution(p)),
        ("thermal", 1.2, lambda p: thermal_distribution(p)),
        ("spats", 0.8, lambda p: spats_distribution(p)),
        ("fock1", None, lambda p: fock_distribution(1)),
        ("odd", 2.0, lambda p: odd_coherent(math.sqrt(p))),
    ], ids=["coherent", "thermal", "spats", "fock1", "odd"])
    def test_moment_round_trip(self, resp, kind, param, state_of):
        det = DetectorConfig(self.N, resp)
        stats = click_statistics(state_of(param), det)
        mom = pi_moments(stats)
        for m in range(self.N + 1):
            direct = self._direct(kind, param, resp, m)
            assert abs(mom.values[m] - direct) < 1e-10, (m, kind)


class TestMomentMatrix:
    def test_hankel_shape_n8(self):
        stats = click_statistics(thermal_distribution(1.0),
                                 DetectorConfig(8, Linear(0.9)))
        M = moment_matrix(pi_moments(stats), 8)
        assert M.entries.shape == (5, 5)
        assert M.index_basis == (0, 1, 2, 3, 4)
        mom = pi_moments(stats)
        for i in range(5):
            for j in range(5):
                assert M.entries[i, j] == mom.values[i + j]

    def test_small_banks_give_two_by_two(self):
        for N in (2, 3):
            stats = click_statistics(coherent_distribution(0.5),
                                     DetectorConfig(N, Linear(0.8)))
            M = moment_matrix(pi_moments(stats), N)
            assert M.entries.shape == (2, 2)

    def test_vacuum_matrix(self):
        stats = click_statistics(fock_distribution(0),
                                 DetectorConfig(8, Linear(0.9)))
        M = moment_matrix(pi_moments(stats), 8)
        assert M.entries[0, 0] == pytest.approx(1.0)
        assert np.max(np.abs(M.entries)) == pytest.approx(1.0)
        minors = leading_principal_minors(M)
        assert minors[0] == pytest.approx(1.0)
        assert all(abs(v) < 1e-20 for v in minors[1:])

    def test_insufficient_order(self):
        stats = click_statistics(coherent_distribution(0.5),
                                 DetectorConfig(4, Linear(0.8)))
        mom = pi_moments(stats)
        with pytest.raises(InsufficientOrder):
            moment_matrix(mom, 8)

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            MomentMatrix(np.array([[1.0, 0.2], [0.3, 0.1]]), (0, 1))


class TestMinors:
    def test_identity(self):
        M = MomentMatrix(np.eye(3), (0, 1, 2))
        assert leading_principal_minors(M) == (1.0, 1.0, 1.0)

    def test_rank_one(self):
        # dyadic entries keep the outer product exactly rank one in floats
        v = np.array([1.0, 0.25, 0.0625])
        M = MomentMatrix(np.outer(v, v), (0, 1, 2))
        minors = leading_principal_minors(M)
        assert minors[0] == pytest.approx(1.0)
        assert all(abs(x) < 1e-25 for x in minors[1:])

    def test_single_photon_two_by_two(self):
        N, eta = 8, 0.9
        stats = click_statistics(fock_distribution(1),
                                 DetectorConfig(N, Linear(eta)))
        M = moment_matrix(pi_moments(stats), N)
        minors = leading_principal_minors(M)
        qb = qb_parameter(stats)
        mean = eta
        expected = mean * (N - mean) * qb / (N * N * (N - 1))
        assert abs(minors[1] - expected) < 1e-15
        assert abs(minors[1] - (-(eta / N) ** 2)) < 1e-15

    @pytest.mark.parametrize("nbar", [0.2, 1.0, 2.5])
    def test_spats_minors_pipeline_exact(self, nbar):
        # oracle rebuilt from the same stored probabilities, so this pins
        # the kernel + moment + determinant pipeline at working precision
        state = spats_distribution(nbar)
        stats = click_statistics(state, DetectorConfig(8, Linear(0.9)))
        minors = leading_principal_minors(moment_matrix(pi_moments(stats), 8))
        N, eta = 8, 0.9
        with mp.workprec(300):
            def E(s):
                c = mp.mpf(s) * mp.mpf(eta) / N
                return mp.fsum(pn * (1 - c) ** n
                               for n, pn in enumerate(state.probs))
            vals = [mp.fsum(math.comb(m, j) * (-1) ** j * E(j)
                            for j in range(m + 1)) for m in range(N + 1)]
            M = mp.matrix(5, 5)
            for i in range(5):
                for j in range(5):
                    M[i, j] = vals[i + j]
            oracle = [float(mp.det(M[:k, :k])) for k in range(1, 6)]
        for got, ref in zip(minors, oracle):
            assert abs(got - ref) < 1e-17 + 1e-12 * abs(ref)

    @pytest.mark.parametrize("nbar", [0.2, 1.0, 2.5])
    def test_spats_minors_family_fidelity(self, nbar):
        # against the untruncated family closed form; float construction of
        # the distribution bounds the agreement near 1e-14
        stats = click_statistics(spats_distribution(nbar),
                                 DetectorConfig(8, Linear(0.9)))
        minors = leading_principal_minors(moment_matrix(pi_moments(stats), 8))
        oracle = spats_minors_oracle(nbar, 0.9, 8)
        for got, ref in zip(minors[:3], oracle[:3]):
            assert abs(got - ref) < 1e-12
        for got, ref in zip(minors, oracle):
            assert abs(got - ref) < 1e-12 + 1e-6 * abs(ref)


class TestQbIdentity:
    """2x2 minor = <c>(N-<c>) Q_B / (N^2 (N-1)) for any statistics vector."""

    @pytest.mark.parametrize("N", [2, 4, 8, 16])
    def test_random_vectors(self, N):
        rng = np.random.default_rng(20240511 + N)
        for _ in range(50):
            c = rng.dirichlet(np.ones(N + 1))
            stats = ClickStatistics(N, tuple(c))
            minors = leading_principal_minors(
                moment_matrix(pi_moments(stats), N))
            qb = qb_parameter(stats)
            mean = math.fsum(k * ck for k, ck in enumerate(c))
            expected = mean * (N - mean) * qb / (N * N * (N - 1))
            assert abs(minors[1] - expected) < 1e-12


class TestQbParameter:
    def test_binomial_is_zero(self):
        for N, p in ((4, 0.3), (8, 0.62), (16, 0.05)):
            assert abs(qb_parameter(binomial_stats(N, p))) < 1e-12

    def test_single_photon_closed_form(self):
        N, eta = 8, 0.9
        stats = click_statistics(fock_distribution(1),
                                 DetectorConfig(N, Linear(eta)))
        expected = -eta * (N - 1) / (N - eta)
        assert abs(qb_parameter(stats) - expected) < 1e-12
        assert abs(expected - (-0.8873239436619718)) < 1e-15

    def test_thermal_is_super_binomial(self):
        stats = click_statistics(thermal_distribution(1.5),
                                 DetectorConfig(8, Linear(0.9)))
        assert qb_parameter(stats) > 0.0

    def test_vacuum_degenerate(self):
        with pytest.raises(DegenerateMean):
            qb_parameter(ClickStatistics(4, (1.0, 0.0, 0.0, 0.0, 0.0)))

    def test_saturated_degenerate(self):
        with pytest.raises(DegenerateMean):
            qb_parameter(ClickStatistics(4, (0.0, 0.0, 0.0, 0.0, 1.0)))

    @pytest.mark.parametrize("N", [5, 6])
    def test_mean_below_resolution_is_degenerate(self, N):
        # thermal light on 24-photon absorbers: the truncated state stops at
        # 23 photons, too few to fire any diode, so c_1..c_N are exactly 0
        # (the alternating series left kernel noise of up to 2.7e-124
        # there) and the mean click number is zero
        state = thermal_distribution(0.35)
        assert state.cutoff < 24
        stats = click_statistics(state,
                                 DetectorConfig(N, NPhotonAbsorption(24)))
        assert stats.probs[1:] == (0.0,) * N
        with pytest.raises(DegenerateMean):
            qb_parameter(stats)
        assert witness_report(stats).qb is None

    def test_mean_below_the_tail_is_kept(self):
        # the truncated tail only adds clicks, so a resolved mean below
        # N * norm_slack (5.6e-15 against 6.8e-14) cannot be zero; every
        # c_k is within its relative error of the exact contraction, and
        # Q_B within 1e-12 of the exact one
        state = thermal_distribution(0.35)
        stats = click_statistics(state,
                                 DetectorConfig(8, NPhotonAbsorption(11)))
        exact = [sum(Fraction(p) * nabs_kernel(8, 11, k, n)
                     for n, p in enumerate(state.probs)) for k in range(9)]
        for got, want in zip(stats.probs, exact):
            error = abs(Fraction(got) - want)
            assert error <= Fraction(stats.relative_error) * want
        mean = sum(k * c for k, c in enumerate(stats.probs))
        assert 1e-15 < mean < stats.N * stats.norm_slack
        want = _exact_qb(exact)
        assert abs(witness_report(stats).qb - want) <= 1e-12 * abs(want)

    def test_superposition_mean_within_the_assembly_error_is_degenerate(self):
        # c_k of a superposition are assembled from no-click values held to
        # 1e-40 each, so each is within C(N,k) 2^k 1e-40 (32e-40 on N = 4);
        # this mean, 1.6e-38, lies inside sum_k k times that, though outside
        # the sum_k k 1e-40 of a kernel table
        stats = click_statistics(odd_coherent(1.0),
                                 DetectorConfig(4, NPhotonAbsorption(24)))
        assert stats.exact_error == pytest.approx(32e-40)
        with mp.workprec(220):
            mean = mp.fsum(k * c for k, c in enumerate(stats.exact))
        assert 10 * 1e-40 < mean < 10 * stats.exact_error
        with pytest.raises(DegenerateMean):
            qb_parameter(stats)

    def test_large_bank_keeps_its_margin_small(self):
        # positive kernels hold every c_k to (order + N) 2^-52 of itself,
        # with no absolute error, however large the bank
        stats = click_statistics(fock_distribution(3),
                                 DetectorConfig(100, Linear(0.9)))
        assert stats.exact_error == 0.0
        assert stats.relative_error == (32 + 100) * 2.0 ** -52
        want = _exact_qb([linear_kernel(100, 0.9, 0.0, k, 3)
                          for k in range(101)])
        assert want < 0.0
        assert abs(qb_parameter(stats) - want) <= 1e-12 * abs(want)

    def test_saturated_mean_within_the_relative_error_is_degenerate(self):
        # coherent mu = 125 on four ideal diodes: N - <c> is 1.3e-13, above
        # the tail's 2.4e-14 but below the kernels' relative error of the
        # mean, 2.3e-13, so the spread is not resolved (the 1e-40 series
        # kernels gave Q_B = 0.55 here; the untruncated state has Q_B = 0)
        stats = click_statistics(coherent_distribution(125.0),
                                 DetectorConfig(4, Linear(1.0)))
        assert stats.exact is None
        gap = 4 - sum(k * Fraction(c) for k, c in enumerate(stats.probs))
        assert 4 * stats.norm_slack < gap < 4 * stats.relative_error
        with pytest.raises(DegenerateMean):
            qb_parameter(stats)

    def test_unresolved_variance_is_withheld(self):
        # odd coherent |alpha|^2 = 1.5 on 26-photon absorbers: the mean,
        # 5.5e-38, is above its 3.2e-38 margin, but c_2..c_4 are assembly
        # noise of 1e-72, so N Var - <c>(N - <c>) is known to no better than
        # the denominator; Q_B used to come out as -4.5e-34
        stats = click_statistics(odd_coherent(math.sqrt(1.5)),
                                 DetectorConfig(4, NPhotonAbsorption(26)))
        with mp.workprec(220):
            mean = mp.fsum(k * c for k, c in enumerate(stats.exact))
        assert 10 * stats.exact_error < mean
        with pytest.raises(DegenerateMean):
            qb_parameter(stats)
        assert witness_report(stats).qb is None

    def test_saturated_tail_is_counted(self):
        # coherent mu = 112.5 on four ideal diodes: the untruncated state
        # has Q_B = 0, and the 6.3e-15 tail alone moves N Var - <c>(N - <c>)
        # by 3e-13, so Q_B came out as 0.0305; with the tail the error
        # bounds reach 1.03e-11 against the denominator's 9.9e-12
        stats = click_statistics(coherent_distribution(112.5),
                                 DetectorConfig(4, Linear(1.0)))
        with pytest.raises(DegenerateMean):
            qb_parameter(stats)
        assert witness_report(stats).qb is None
        # at mu = 110 the denominator is 6.4 times larger: Q_B stays, and
        # lies within its bound of the true 0
        stats = click_statistics(coherent_distribution(110.0),
                                 DetectorConfig(4, Linear(1.0)))
        assert 0.0 < qb_parameter(stats) < 0.03

    def test_tail_toward_saturation_is_withheld(self):
        # binomial p = 1 - 1e-10 on N = 4 (Q_B = 0) with 5e-11 of c_4 cut
        # off as a truncation tail: the truncated numbers give Q_B = 1.0,
        # wrong by one, so it must be withheld
        eps, tail = 1e-10, 5e-11
        c = [math.comb(4, k) * (1 - eps) ** k * eps ** (4 - k)
             for k in range(5)]
        c[4] -= tail
        stats = ClickStatistics(4, tuple(c), norm_slack=tail)
        with pytest.raises(DegenerateMean):
            qb_parameter(stats)

    def test_unplaced_normalization_defect_is_withheld(self):
        # a binomial p = 1 - 5.6e-17 on N = 5 rounded to floats sums to
        # 1 + 5.6e-17; that defect, put at k = 5 as the floats are, moves
        # N - <c> by as much as its value, and Q_B came out as -5.3e15
        stats = ClickStatistics(5, (8.433758354584419e-81,
                                    3.798227098303919e-64,
                                    6.84227765783602e-48,
                                    6.162975822039153e-32,
                                    2.7755575615628904e-16,
                                    0.9999999999999998))
        with pytest.raises(DegenerateMean):
            qb_parameter(stats)
        assert witness_report(stats).verdict == "consistent-with-classical"


def _exact_qb(c):
    """Q_B of rational click numbers, as a float."""
    N = len(c) - 1
    mean = sum(k * ck for k, ck in enumerate(c))
    second = sum(k * k * ck for k, ck in enumerate(c))
    return float(N * (second - mean ** 2) / (mean * (N - mean)) - 1)


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(MomentMatrix(np.eye(3), (0, 1, 2))) == 1.0

    def test_negative_minor_implies_negative_eigenvalue(self):
        stats = click_statistics(fock_distribution(1),
                                 DetectorConfig(8, Linear(0.9)))
        M = moment_matrix(pi_moments(stats), 8)
        assert leading_principal_minors(M)[1] < 0
        assert min_eigenvalue(M) < 0

    def test_spats_negative_region(self):
        stats = click_statistics(spats_distribution(0.2),
                                 DetectorConfig(8, Linear(0.9)))
        assert min_eigenvalue(moment_matrix(pi_moments(stats), 8)) < 0


class TestJointMoments:
    def test_zero_zero_is_one(self):
        state = tmsv_joint(0.6)
        det = DetectorConfig(4, Linear(0.8))
        mom = joint_pi_moments(joint_click_statistics(state, det, det))
        assert mom.values[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_product_statistics_factorize(self):
        s1 = coherent_distribution(0.8)
        s2 = thermal_distribution(0.5)
        d1 = DetectorConfig(4, Linear(0.9))
        d2 = DetectorConfig(4, Linear(0.7))
        joint = joint_click_statistics(product_joint(s1, s2), d1, d2)
        mom = joint_pi_moments(joint)
        m1 = pi_moments(click_statistics(s1, d1))
        m2 = pi_moments(click_statistics(s2, d2))
        for a in range(5):
            for b in range(5):
                assert abs(mom.values[a, b]
                           - m1.values[a] * m2.values[b]) < 1e-12

    def test_tmsv_positive_click_covariance(self):
        state = tmsv_joint(math.sqrt(0.5))
        det = DetectorConfig(4, Linear(0.8))
        mom = joint_pi_moments(joint_click_statistics(state, det, det))
        assert mom.values[1, 1] > mom.values[1, 0] * mom.values[0, 1]


class TestJointMatrix:
    def test_basis_order_n4(self):
        state = tmsv_joint(0.5)
        det = DetectorConfig(4, Linear(0.8))
        M = joint_moment_matrix(
            joint_pi_moments(joint_click_statistics(state, det, det)), 4, 4)
        assert M.index_basis == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                                 (0, 2), (2, 1), (1, 2), (2, 2))
        assert M.entries.shape == (9, 9)
        assert M.entries[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_product_coherent_passes(self):
        state = product_joint(coherent_distribution(0.7),
                              coherent_distribution(1.1))
        det = DetectorConfig(4, Linear(0.8))
        M = joint_moment_matrix(
            joint_pi_moments(joint_click_statistics(state, det, det)), 4, 4)
        assert min_eigenvalue(M) >= -1e-10
        assert all(v >= -1e-10 for v in leading_principal_minors(M))

    def test_insufficient_order(self):
        state = tmsv_joint(0.5)
        det = DetectorConfig(2, Linear(0.8))
        mom = joint_pi_moments(joint_click_statistics(state, det, det))
        with pytest.raises(InsufficientOrder):
            joint_moment_matrix(mom, 4, 4)


def _rows(table) -> tuple:
    """A table of integers as rows of Fractions over its total."""
    total = int(table.sum())
    return tuple(tuple(Fraction(int(c), total) for c in row) for row in table)


class TestOneAxisPerBank:
    """One bank is the one-axis case of the moments and matrices of two."""

    def test_basis_orders(self):
        for N in range(12):
            assert _basis((N,)) == tuple((m,) for m in range(N // 2 + 1))
        assert _basis((4, 4)) == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                                  (0, 2), (2, 1), (1, 2), (2, 2))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda N1: hnp.arrays(
        np.int64, (N1 + 1, 2), elements=st.integers(0, 10 ** 6))).filter(
            lambda c: c.sum() > 0))
    def test_second_bank_of_one_diode_reduces_to_one_bank(self, table):
        # c[k1, k2] with N2 = 1 against its marginal over k2
        N1 = table.shape[0] - 1
        exact = _rows(table)
        joint = JointClickStatistics(N1, 1, np.array(exact, dtype=float),
                                     exact=exact)
        (marginal,) = _rows(table.sum(axis=1)[None])
        single = ClickStatistics(N1, tuple(map(float, marginal)),
                                 exact=marginal)
        got = joint_moment_matrix(joint_pi_moments(joint), N1, 1)
        want = moment_matrix(pi_moments(single), N1)
        assert got.entries.tobytes() == want.entries.tobytes()
        assert got.index_basis == tuple((m, 0) for m in want.index_basis)
        assert leading_principal_minors(got) == leading_principal_minors(want)
        assert min_eigenvalue(got) == min_eigenvalue(want)


class TestCrossCorrelationMinor:
    def test_product_coherent_vanishes(self):
        state = product_joint(coherent_distribution(0.9),
                              coherent_distribution(0.4))
        det = DetectorConfig(4, Linear(0.8))
        val = cross_correlation_minor(joint_click_statistics(state, det, det))
        assert abs(val) < 1e-10

    def test_tmsv_negative(self):
        state = tmsv_joint(math.sqrt(0.5))
        det = DetectorConfig(4, Linear(0.8))
        val = cross_correlation_minor(joint_click_statistics(state, det, det))
        assert val < 0.0

    def test_product_thermal_positive(self):
        state = product_joint(thermal_distribution(0.8),
                              thermal_distribution(1.3))
        det = DetectorConfig(4, Linear(0.8))
        val = cross_correlation_minor(joint_click_statistics(state, det, det))
        assert val > 0.0

    def test_needs_two_diodes(self):
        table = np.full((2, 2), 0.25)
        stats = JointClickStatistics(1, 1, table)
        with pytest.raises(OrderExceedsDiodes):
            cross_correlation_minor(stats)

    def test_cauchy_schwarz_on_separable_mixtures(self):
        det = DetectorConfig(4, Linear(0.8))
        rng = np.random.default_rng(7)
        for _ in range(5):
            parts = []
            weights = rng.dirichlet(np.ones(3))
            for _ in range(3):
                mu1, mu2 = rng.uniform(0.1, 2.0, size=2)
                parts.append(product_joint(coherent_distribution(mu1),
                                           coherent_distribution(mu2)))
            from clickstats import mixture_joint
            state = mixture_joint(tuple(weights), tuple(parts))
            val = cross_correlation_minor(
                joint_click_statistics(state, det, det))
            assert val >= -1e-10


class TestWitnessReport:
    def test_coherent_consistent(self):
        stats = click_statistics(coherent_distribution(1.5),
                                 DetectorConfig(8, Linear(0.9)))
        rep = witness_report(stats)
        assert rep.verdict == "consistent-with-classical"
        assert all(v >= -1e-10 for v in rep.leading_minors)
        assert rep.cross_minor is None

    def test_single_photon_nonclassical_via_qb(self):
        stats = click_statistics(fock_distribution(1),
                                 DetectorConfig(8, Linear(0.9)))
        rep = witness_report(stats)
        assert rep.verdict == "nonclassical"
        assert rep.qb < -0.88

    def test_spats_flagged_only_at_higher_order(self):
        # past the two-by-two crossover near nbar 0.877 only deeper minors dip
        stats = click_statistics(spats_distribution(2.5),
                                 DetectorConfig(8, Linear(0.9)))
        rep = witness_report(stats)
        assert rep.leading_minors[1] > 0
        assert min(rep.leading_minors[2:]) < 0
        assert rep.verdict == "nonclassical"

    def test_joint_tmsv_nonclassical(self):
        state = tmsv_joint(math.sqrt(0.5))
        det = DetectorConfig(4, Linear(0.8))
        rep = witness_report(joint_click_statistics(state, det, det))
        assert rep.verdict == "nonclassical"
        assert rep.cross_minor < 0
        assert rep.qb is None

    def test_threshold_semantics(self):
        # tiny numerical negatives stay classical at the default threshold
        stats = click_statistics(coherent_distribution(2.0),
                                 DetectorConfig(4, Linear(1.0)))
        rep = witness_report(stats, threshold=1e-9)
        assert rep.verdict == "consistent-with-classical"
        rep_strict = witness_report(stats, threshold=0.0)
        assert rep_strict.threshold == 0.0

    def test_nan_threshold_is_refused(self):
        # NaN passed the old `threshold < 0` test and then flagged nothing:
        # a Fock 1 source on four linear diodes read classical
        stats = click_statistics(fock_distribution(1),
                                 DetectorConfig(4, Linear(1.0)))
        with pytest.raises(ValueError, match="threshold"):
            witness_report(stats, threshold=math.nan)

    def test_scaling_never_flips_signs(self):
        stats = click_statistics(spats_distribution(0.4),
                                 DetectorConfig(8, Linear(0.9)))
        minors = np.array(leading_principal_minors(
            moment_matrix(pi_moments(stats), 8)))
        for scale in (1e2, 1e5, 1e8, 1e13):
            assert np.array_equal(np.sign(minors * scale), np.sign(minors))

    def test_to_dict(self):
        stats = click_statistics(coherent_distribution(1.0),
                                 DetectorConfig(4, Linear(0.9)))
        d = witness_report(stats).to_dict()
        assert set(d) == {"leading_minors", "min_eigenvalue", "qb",
                          "cross_minor", "verdict", "threshold"}
        assert isinstance(d["leading_minors"], list)
