"""Tests for Monte Carlo sampling, estimation, and bootstrap witnesses."""

import dataclasses
import io
import math
import re
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clickstats import (
    ClickHistogram,
    ClickStatistics,
    DetectorConfig,
    JointClickStatistics,
    Linear,
    RngSeed,
    bootstrap_witness,
    click_statistics,
    coherent_distribution,
    estimate_statistics,
    fock_distribution,
    joint_click_statistics,
    read_histogram_csv,
    thermal_distribution,
    sample_clicks,
    tmsv_joint,
    write_histogram_csv,
)
from clickstats.cli import main
from clickstats.errors import EmptyHistogram
from clickstats.sampler import (
    _batched_minors,
    _generator,
    _replica_map,
    _replicas,
    _spread,
)
from clickstats.witness import (
    cross_correlation_minor,
    joint_pi_moments,
    pi_moments,
    qb_parameter,
    witness_report,
)
from exact_kernels import histogram_ref


def binomial_stats(N: int, p: float) -> ClickStatistics:
    probs = tuple(math.comb(N, k) * p**k * (1 - p) ** (N - k)
                  for k in range(N + 1))
    return ClickStatistics(N=N, probs=probs)


# histograms of one bank (N 1..8) and of two (N1, N2 1..4), zeros included
HISTOGRAMS = st.one_of(
    hnp.arrays(np.int64, st.integers(2, 9), elements=st.one_of(
        st.just(0), st.integers(0, 10 ** 6))),
    hnp.arrays(np.int64, st.tuples(st.integers(2, 5), st.integers(2, 5)),
               elements=st.one_of(st.just(0), st.integers(0, 10 ** 6)))
).filter(lambda c: c.sum() > 0)


def assert_checked_histogram(hist, counts):
    """hist holds what the checking constructor makes of counts, read-only."""
    ref = ClickHistogram(np.array(counts))
    assert hist.counts.dtype == ref.counts.dtype == np.int64
    assert hist.counts.shape == ref.counts.shape
    assert np.array_equal(hist.counts, ref.counts)
    assert not hist.counts.flags.writeable
    assert hist.total == ref.total


class TestRngSeed:
    def test_valid(self):
        assert RngSeed(0).seed == 0
        assert RngSeed(2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            RngSeed(bad)


class TestClickHistogram:
    def test_single_properties(self):
        h = ClickHistogram(np.array([3, 1, 0, 2]))
        assert not h.is_joint
        assert h.N == 3
        assert h.total == 6

    def test_joint_properties(self):
        h = ClickHistogram(np.array([[1, 2], [3, 4]]))
        assert h.is_joint
        assert (h.N1, h.N2) == (1, 1)
        assert h.total == 10

    def test_counts_frozen(self):
        h = ClickHistogram(np.array([1, 2]))
        with pytest.raises(ValueError):
            h.counts[0] = 5

    def test_float_counts_must_be_integral(self):
        assert ClickHistogram(np.array([1.0, 2.0])).total == 3
        with pytest.raises(ValueError):
            ClickHistogram(np.array([1.5, 2.0]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ClickHistogram(np.array([1, -1]))

    @pytest.mark.parametrize("counts,message", [
        (np.array([1, -1]), "counts must be non-negative"),
        (np.array([[1, 2], [-3, 4]]), "counts must be non-negative"),
        (np.array([1.5, 2.0]), "counts must be integers"),
        (np.array([1.0, np.nan]), "counts must be integers"),
        (np.array([2 ** 63, 1], dtype=np.uint64), "counts must be below 2^63"),
        (np.array([2.0 ** 63, 1.0]), "counts must be below 2^63"),
        (np.ones((2, 2, 2), dtype=np.int64),
         "counts must be a 1-D or 2-D array"),
        (np.array([5]), "each bank needs outcomes 0..N with N >= 1"),
        (np.array([[5, 1]]), "each bank needs outcomes 0..N with N >= 1"),
    ])
    def test_caller_counts_checked(self, counts, message):
        # histograms the library makes skip these checks; a caller's do not
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ClickHistogram(counts)

    @settings(max_examples=40, deadline=None)
    @given(counts=HISTOGRAMS, seed=st.integers(0, 2 ** 64 - 1))
    def test_library_histograms_are_checked_ones(self, counts, seed):
        # a draw and a file read back are taken as built: the same table as
        # the checking constructor makes of their numbers
        total = int(counts.sum())
        freq = counts / total
        stats = (JointClickStatistics(counts.shape[0] - 1, counts.shape[1] - 1,
                                      freq) if counts.ndim == 2 else
                 ClickStatistics(len(counts) - 1, freq))
        drawn = sample_clicks(stats, total, seed)
        assert_checked_histogram(drawn, drawn.counts.tolist())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "h.csv")
            write_histogram_csv(ClickHistogram(counts), path)
            assert_checked_histogram(read_histogram_csv(path), counts)

    def test_wrong_axis_access(self):
        single = ClickHistogram(np.array([1, 2]))
        joint = ClickHistogram(np.array([[1, 2], [3, 4]]))
        with pytest.raises(AttributeError):
            single.N1
        with pytest.raises(AttributeError):
            joint.N


class TestSampleClicks:
    def test_point_mass(self):
        stats = ClickStatistics(N=4, probs=(1.0, 0.0, 0.0, 0.0, 0.0))
        h = sample_clicks(stats, 1000, RngSeed(7))
        assert h.counts[0] == 1000
        assert h.total == 1000

    def test_deterministic(self):
        stats = binomial_stats(4, 0.3)
        a = sample_clicks(stats, 5000, RngSeed(123))
        b = sample_clicks(stats, 5000, RngSeed(123))
        assert np.array_equal(a.counts, b.counts)
        c = sample_clicks(stats, 5000, RngSeed(124))
        assert not np.array_equal(a.counts, c.counts)

    def test_plain_int_seed_matches_wrapper(self):
        stats = binomial_stats(4, 0.3)
        a = sample_clicks(stats, 500, 99)
        b = sample_clicks(stats, 500, RngSeed(99))
        assert np.array_equal(a.counts, b.counts)

    def test_binomial_frequencies(self):
        stats = binomial_stats(4, 0.5)
        n = 10**6
        h = sample_clicks(stats, n, RngSeed(2024))
        freq = h.counts / n
        for k, truth in enumerate(stats.probs):
            se = math.sqrt(truth * (1 - truth) / n)
            assert abs(freq[k] - truth) < 4 * se

    def test_joint_sampling(self):
        det = DetectorConfig(N=4, response=Linear(eta=0.8))
        stats = joint_click_statistics(tmsv_joint(0.5, tol=1e-14), det, det)
        h = sample_clicks(stats, 20000, RngSeed(5))
        assert h.is_joint
        assert h.counts.shape == (5, 5)
        assert h.total == 20000
        h2 = sample_clicks(stats, 20000, RngSeed(5))
        assert np.array_equal(h.counts, h2.counts)

    def test_invalid_sample_count(self):
        stats = binomial_stats(2, 0.5)
        with pytest.raises(ValueError):
            sample_clicks(stats, 0, RngSeed(1))
        with pytest.raises(ValueError):
            sample_clicks(stats, -5, RngSeed(1))

    def test_signed_statistics_refused(self):
        stats = ClickStatistics(N=2, probs=(0.7, 0.4, -0.1), formal=True)
        with pytest.raises(ValueError, match="signed"):
            sample_clicks(stats, 100, RngSeed(1))

    def test_roundoff_negatives_clipped(self):
        stats = ClickStatistics(N=2, probs=(0.6, 0.4 + 5e-10, -5e-10),
                                formal=True)
        h = sample_clicks(stats, 1000, RngSeed(3))
        assert h.counts[2] == 0
        assert h.total == 1000

    @pytest.mark.parametrize("joint", [False, True])
    def test_kept_weights(self, joint):
        # the weights kept after a first draw give the draws of a fresh,
        # equal object, and are not part of the statistics' value
        table = np.outer([0.2, 0.5, 0.3], [0.6, 0.4]) if joint else None

        def make():
            return (JointClickStatistics(2, 1, table) if joint
                    else binomial_stats(4, 0.3))

        stats = make()
        before = repr(stats)
        for seed in (11, 12):
            drawn = sample_clicks(stats, 5000, RngSeed(seed))
            fresh = sample_clicks(make(), 5000, RngSeed(seed))
            assert np.array_equal(drawn.counts, fresh.counts)
        assert repr(stats) == before == repr(make())
        if not joint:
            assert stats == make()
            assert hash(stats) == hash(make())

    def test_sample_count_limit(self):
        # Generator.multinomial takes n only below 2^63
        stats = binomial_stats(2, 0.5)
        assert sample_clicks(stats, 2 ** 63 - 1, RngSeed(1)).total == 2 ** 63 - 1
        with pytest.raises(ValueError, match="2\\^63"):
            sample_clicks(stats, 2 ** 63, RngSeed(1))


def multinomial_chi2(stats, probs, n, seeds):
    """Chi-square statistic of the histograms of `seeds` draws of n events
    against the exact multinomial pmf of every composition, and its degrees
    of freedom."""
    flat = np.asarray(probs, dtype=float).ravel()
    tally = {}
    for seed in seeds:
        key = tuple(sample_clicks(stats, n, RngSeed(seed)).counts.ravel())
        tally[key] = tally.get(key, 0) + 1
    comps = [c for c in np.ndindex(*(n + 1,) * flat.size) if sum(c) == n]
    assert set(tally) <= set(comps)
    chi2 = 0.0
    for c in comps:
        pmf = math.factorial(n) * math.prod(
            p ** k / math.factorial(k) for p, k in zip(flat, c))
        want = pmf * len(seeds)
        chi2 += (tally.get(c, 0) - want) ** 2 / want
    return chi2, len(comps) - 1


class TestJointDistribution:
    # the draw must match the multinomial law of n events over whole
    # histograms, not only each outcome's binomial marginal; 20 000 seeds,
    # rejected at the 0.001 quantile of chi-square

    def test_single_bank_compositions(self):
        probs = (0.2, 0.3, 0.5)
        stats = ClickStatistics(N=2, probs=probs)
        chi2, dof = multinomial_chi2(stats, probs, 3, range(20000))
        assert dof == 9
        assert chi2 < 27.88

    def test_joint_compositions_row_major(self):
        probs = np.array([[0.1, 0.2], [0.3, 0.4]])
        stats = JointClickStatistics(N1=1, N2=1, probs=probs)
        chi2, dof = multinomial_chi2(stats, probs, 3, range(20000))
        assert dof == 19
        assert chi2 < 43.82


def det_minors(mats):
    return np.stack([np.linalg.det(mats[:, :k, :k])
                     for k in range(1, mats.shape[-1] + 1)], axis=1)


def batched(mats):
    """`_batched_minors` of an (R, d, d) stack, as (R, d)."""
    R, d = len(mats), mats.shape[-1]
    flat = np.ascontiguousarray(mats.reshape(R, d * d).T)
    return _batched_minors(flat, np.arange(d * d).reshape(d, d)).T


@st.composite
def planted_stacks(draw):
    """(mats, kinds, where): a stack of symmetric matrices, each diagonally
    dominant (so elimination without pivoting is stable) with signs of
    either kind on its diagonal, and in some a planted defect: "zero row"
    at index j, "zero pivot" (pivot 1 exactly 0 over a nonzero row 1), or
    "non-finite" (inf, -inf or NaN at a symmetric pair (i, j))."""
    d = draw(st.integers(1, 9))
    R = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((R, d, d))
    mats = a + a.transpose(0, 2, 1)
    off = np.abs(mats).sum(axis=2) - np.abs(np.diagonal(mats, axis1=1, axis2=2))
    signs = rng.choice([-1.0, 1.0], size=(R, d))
    idx = np.arange(d)
    mats[:, idx, idx] = signs * (off + 1.0)
    kinds = ["regular", "zero row"] + (["zero pivot"] if d >= 3 else [])
    kinds += ["non-finite"]
    plan = draw(st.lists(st.sampled_from(kinds), min_size=R, max_size=R))
    where = []
    for r, kind in enumerate(plan):
        m = mats[r]
        i, j = sorted(draw(st.tuples(st.integers(0, d - 1),
                                     st.integers(0, d - 1))))
        if kind == "zero row":
            m[j, :] = m[:, j] = 0.0
        elif kind == "zero pivot":
            s = float(draw(st.integers(1, 5)))
            m[:2, :] = m[:, :2] = 0.0
            m[:2, :2] = s
            m[1, 2] = m[2, 1] = float(draw(st.integers(1, 5)))
        elif kind == "non-finite":
            m[i, j] = m[j, i] = draw(st.sampled_from(
                [np.inf, -np.inf, np.nan]))
        where.append(j)
    return mats, plan, where


class TestBatchedMinors:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
    def test_random_symmetric_stacks(self, d):
        rng = np.random.default_rng(1000 + d)
        a = rng.standard_normal((500, d, d))
        mats = a + a.transpose(0, 2, 1)
        want = det_minors(mats)
        got = batched(mats)
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(got - want) <= 1e-10 * scale)

    @settings(max_examples=150, deadline=None)
    @given(planted_stacks())
    def test_planted_stacks(self, planted):
        # regular replicas within 1e-10 x scale of det; a zero row at j
        # gives exact zeros from minor j+1 on; a zero pivot over a nonzero
        # row and a non-finite entry send that replica alone to det, bit
        # for bit
        mats, plan, where = planted
        R, d = len(plan), mats.shape[-1]
        calls = []
        real_det = np.linalg.det

        def spy(x):
            calls.append(x.shape[0])
            return real_det(x)

        with np.errstate(invalid="ignore"):
            want = det_minors(mats)
            with mock.patch("numpy.linalg.det", spy):
                got = batched(mats)
        assert got.shape == (R, d)
        to_det = [r for r, kind in enumerate(plan)
                  if kind in ("zero pivot", "non-finite")]
        assert calls == ([len(to_det)] * d if to_det else [])
        assert np.array_equal(got[to_det], want[to_det], equal_nan=True)
        finite = [r for r, kind in enumerate(plan)
                  if kind in ("regular", "zero row")]
        scale = np.max(np.abs(want[finite]), axis=0, initial=0.0)
        for r in finite:
            first = where[r] if plan[r] == "zero row" else d
            assert np.all(got[r, first:] == 0.0)
            assert np.all(np.abs(got[r, :first] - want[r, :first])
                          <= 1e-10 * scale[:first])

    @staticmethod
    def zero_pivot_stack():
        """Thermal, Fock 1 and their mixture on N = 8, then the thermal
        matrix with a zero row and column 2, the zero matrix, and a matrix
        whose second pivot is 0 over a nonzero column."""
        det = DetectorConfig(N=8, response=Linear(eta=0.9))
        fock = np.array(click_statistics(fock_distribution(1), det).probs)
        th = np.array(click_statistics(thermal_distribution(1.0), det).probs)
        W, index = _replica_map((9,))
        moms = W @ np.stack([th, fock, th / 2 + fock / 2]).T
        mats = np.moveaxis(moms[index], -1, 0)
        zero_row = mats[0].copy()
        zero_row[2, :] = zero_row[:, 2] = 0.0
        column = np.eye(5)
        column[:3, :3] = [[1, 1, 0], [1, 1, 1], [0, 1, 0]]
        return np.concatenate([mats, zero_row[None], np.zeros((1, 5, 5)),
                               column[None]])

    def test_zero_pivots_take_the_determinant(self):
        # a zero pivot over a nonzero column: that replica alone takes
        # every minor from np.linalg.det, bit for bit
        mats = self.zero_pivot_stack()
        calls = []
        real_det = np.linalg.det

        def spy(x):
            calls.append(x.shape[0])
            return real_det(x)

        with mock.patch("numpy.linalg.det", spy):
            got = batched(mats)
        assert calls == [1] * 5
        want = det_minors(mats)
        assert np.array_equal(got[5], want[5])
        assert got[5].tolist() == [1.0, 0.0, -1.0, -1.0, -1.0]
        good = [0, 2]
        scale = np.max(np.abs(want[good]), axis=0)
        assert np.all(np.abs(got[good] - want[good]) <= 1e-10 * scale)

    def test_zero_columns_give_exact_zeros(self):
        # Fock 1 moments on N = 8 vanish beyond the first, so the third
        # pivot is exactly 0 over a zero column; so is the zero row's, and
        # the zero matrix's first: every minor from there on is exactly 0,
        # and the earlier ones are products of pivots
        mats = self.zero_pivot_stack()
        want = det_minors(mats)
        got = batched(mats)
        scale = np.max(np.abs(want[:5]), axis=0)
        for r, first in ((1, 2), (3, 2), (4, 0)):
            assert np.all(got[r, first:] == 0.0)
            assert np.all(np.abs(got[r, :first] - want[r, :first])
                          <= 1e-10 * scale[:first])


class TestEstimateStatistics:
    def test_point_mass(self):
        h = ClickHistogram(np.array([5, 0, 0]))
        est = estimate_statistics(h)
        assert est.probs[0] == 1.0
        assert est.stderr[0] == 0.0

    def test_half_split_stderr(self):
        # multinomial formula sqrt(p(1-p)/total), exact at p = 1/2
        h = ClickHistogram(np.array([500000, 500000]))
        est = estimate_statistics(h)
        assert est.probs == (0.5, 0.5)
        want = math.sqrt(0.25 / 10**6)
        assert abs(est.stderr[0] - want) < 1e-12
        assert abs(want - 5.0e-4) < 1e-15

    def test_empty_histogram(self):
        h = ClickHistogram(np.array([0, 0, 0]))
        with pytest.raises(EmptyHistogram):
            estimate_statistics(h)

    @settings(max_examples=60, deadline=None)
    @given(counts=HISTOGRAMS)
    def test_taken_as_the_constructors_build(self, counts):
        # the estimate skips the constructors' checks: every field is what
        # they make of counts over their total
        est = estimate_statistics(ClickHistogram(counts))
        total = int(counts.sum())
        freq = counts / total
        se = np.sqrt(freq * (1.0 - freq) / total)
        ints = np.array(counts.tolist(), dtype=object)
        if counts.ndim == 2:
            ref = JointClickStatistics(N1=counts.shape[0] - 1,
                                       N2=counts.shape[1] - 1, probs=freq,
                                       stderr=se, _ints=ints, _scale=total)
        else:
            ref = ClickStatistics(N=len(counts) - 1, probs=freq,
                                  stderr=tuple(se), _ints=ints, _scale=total)
            assert est == ref and repr(est) == repr(ref)
        assert type(est) is type(ref)
        assert est.exact is None
        for f in dataclasses.fields(ref):
            got, want = getattr(est, f.name), getattr(ref, f.name)
            assert type(got) is type(want), f.name
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tolist() == want.tolist(), f.name
                assert got.flags.writeable == want.flags.writeable, f.name
                assert {type(x) for x in got.flat} == {type(x) for x in want.flat}
            else:
                assert got == want, f.name
                if isinstance(want, tuple):
                    assert all(type(x) is float for x in got), f.name

    def test_joint_estimate(self):
        h = ClickHistogram(np.array([[10, 20], [30, 40]]))
        est = estimate_statistics(h)
        assert isinstance(est, JointClickStatistics)
        assert abs(est.probs[1, 1] - 0.4) < 1e-15
        assert abs(est.stderr[1, 1] - math.sqrt(0.4 * 0.6 / 100)) < 1e-15

    def test_kl_divergence_shrinks(self):
        stats = binomial_stats(4, 0.5)
        truth = np.array(stats.probs)

        def kl(n, seed):
            freq = sample_clicks(stats, n, seed).counts / n
            mask = freq > 0
            return float(np.sum(freq[mask] * np.log(freq[mask] / truth[mask])))

        coarse = kl(10**3, RngSeed(11))
        fine = kl(10**5, RngSeed(11))
        assert fine < coarse

    def test_estimator_consistency(self):
        # errors should shrink about 10x when samples grow 100x;
        # averaged over seeds, checked with factor-3 slack
        stats = binomial_stats(4, 0.5)
        truth = np.array(stats.probs)

        def mean_err(n):
            errs = []
            for s in range(10):
                freq = sample_clicks(stats, n, RngSeed(300 + s)).counts / n
                errs.append(np.max(np.abs(freq - truth)))
            return float(np.mean(errs))

        ratio = mean_err(10**4) / mean_err(10**6)
        assert 10 / 3 < ratio < 30


class TestBootstrapWitness:
    def test_parameter_validation(self):
        h = ClickHistogram(np.array([50, 50, 0]))
        with pytest.raises(ValueError):
            bootstrap_witness(h, 99, RngSeed(1))
        with pytest.raises(ValueError):
            bootstrap_witness(h, 200, RngSeed(1), threshold_sigmas=0.0)
        empty = ClickHistogram(np.array([0, 0, 0]))
        with pytest.raises(EmptyHistogram):
            bootstrap_witness(empty, 200, RngSeed(1))

    def test_fock_one_flagged(self):
        det = DetectorConfig(N=8, response=Linear(eta=0.9))
        stats = click_statistics(fock_distribution(1), det)
        h = sample_clicks(stats, 10**6, RngSeed(42))
        report = bootstrap_witness(h, 400, RngSeed(43))
        assert report.verdict == "nonclassical"
        qb_true = -0.9 * 7 / (8 - 0.9)
        se = report.uncertainties["qb"]
        assert abs(report.qb - qb_true) < 3 * se
        assert se < 0.01

    def test_coherent_consistent(self):
        det = DetectorConfig(N=8, response=Linear(eta=0.9))
        stats = click_statistics(coherent_distribution(1.0, tol=1e-14), det)
        h = sample_clicks(stats, 10**6, RngSeed(77))
        report = bootstrap_witness(h, 400, RngSeed(78))
        assert report.verdict == "consistent-with-classical"
        assert abs(report.qb) < 3 * report.uncertainties["qb"]

    def test_tmsv_joint_flagged(self):
        det = DetectorConfig(N=4, response=Linear(eta=0.8))
        stats = joint_click_statistics(tmsv_joint(0.5, tol=1e-14), det, det)
        h = sample_clicks(stats, 10**6, RngSeed(90))
        report = bootstrap_witness(h, 400, RngSeed(91))
        assert report.verdict == "nonclassical"
        se = report.uncertainties["cross_minor"]
        assert report.cross_minor < -3 * se

    def test_uncertainties_shape(self):
        det = DetectorConfig(N=8, response=Linear(eta=0.9))
        stats = click_statistics(coherent_distribution(1.0, tol=1e-14), det)
        h = sample_clicks(stats, 10**5, RngSeed(7))
        report = bootstrap_witness(h, 150, RngSeed(8))
        unc = report.uncertainties
        assert len(unc["leading_minors"]) == len(report.leading_minors)
        assert unc["resamples"] == 150
        assert report.threshold == 3.0
        d = report.to_dict()
        assert "uncertainties" in d

    def test_deterministic(self):
        det = DetectorConfig(N=8, response=Linear(eta=0.9))
        stats = click_statistics(coherent_distribution(1.0, tol=1e-14), det)
        h = sample_clicks(stats, 10**5, RngSeed(7))
        a = bootstrap_witness(h, 150, RngSeed(8))
        b = bootstrap_witness(h, 150, RngSeed(8))
        assert a.uncertainties["leading_minors"] == b.uncertainties["leading_minors"]
        assert a.verdict == b.verdict

    def test_coverage_on_classical_input(self):
        # over many independent runs the 3 sigma interval for the Q
        # parameter of coherent data must cover its true value 0 almost
        # always; a miss rate above 5 percent would mean broken errors
        det = DetectorConfig(N=4, response=Linear(eta=0.8))
        stats = click_statistics(coherent_distribution(1.2, tol=1e-14), det)
        hits = 0
        runs = 200
        for i in range(runs):
            h = sample_clicks(stats, 20000, RngSeed(1000 + i))
            report = bootstrap_witness(h, 120, RngSeed(50000 + i))
            if abs(report.qb) <= 3 * report.uncertainties["qb"]:
                hits += 1
        assert hits >= 0.95 * runs

    @pytest.mark.parametrize("joint", [False, True])
    def test_replica_of_the_point_estimate(self, joint):
        # one resample equal to the data must reproduce the point estimates
        # of its float frequencies
        if joint:
            det = DetectorConfig(N=4, response=Linear(eta=0.8))
            stats = joint_click_statistics(tmsv_joint(0.6), det, det)
        else:
            det = DetectorConfig(N=8, response=Linear(eta=0.9))
            stats = click_statistics(fock_distribution(3), det)
        h = sample_clicks(stats, 20000, RngSeed(5))
        point = estimate_statistics(h)
        minors, name, values = _replicas(h.counts.ravel()[None], h.total,
                                         h.counts.shape)
        if joint:
            moments = joint_pi_moments(point).values
            assert name == "cross_minor"
            assert values[0] == pytest.approx(
                cross_correlation_minor(point), rel=1e-12, abs=1e-15)
        else:
            moments = pi_moments(point).values
            assert name == "qb"
            assert values[0] == pytest.approx(qb_parameter(point),
                                              rel=1e-12, abs=1e-15)
        # the map's rows: every moment, row-major over [m1, m2] for two
        # banks, then for one bank <c> and <c^2>
        W, _ = _replica_map(h.counts.shape)
        rows = W @ h.counts.ravel() / h.total
        np.testing.assert_allclose(rows[:np.size(moments)], np.ravel(moments),
                                   rtol=1e-13, atol=1e-16)
        if joint:
            assert len(rows) == np.size(moments)
        else:
            k = np.arange(h.N + 1)
            np.testing.assert_allclose(rows[h.N + 1:],
                                       [k @ point.probs, k ** 2 @ point.probs],
                                       rtol=1e-13)
        np.testing.assert_allclose(minors[:, 0],
                                   witness_report(point).leading_minors,
                                   rtol=1e-6, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        hnp.arrays(np.int64, st.integers(2, 9), elements=st.integers(0, 10 ** 6)),
        hnp.arrays(np.int64, st.tuples(st.integers(3, 5), st.integers(3, 5)),
                   elements=st.integers(0, 10 ** 6))).filter(
                       lambda c: c.sum() > 0))
    def test_point_estimates_exact_for_the_counts(self, counts):
        # minors, smallest eigenvalue, Q_B and cross minor are those of
        # counts / total in exact rationals, each rounded once
        report = bootstrap_witness(ClickHistogram(counts), 100, RngSeed(3))
        ref = histogram_ref(counts.tolist())
        assert report.leading_minors == ref["minors"]
        assert report.min_eigenvalue == ref["mineig"]
        assert report.qb == ref["qb"]
        assert report.cross_minor == ref["cross"]


    @pytest.mark.parametrize("joint", [False, True])
    def test_point_estimates_are_the_report_on_the_estimate(self, joint):
        # the estimate carries the counts over their total, so the standard
        # witness on it gives the bootstrap's point estimates bit for bit
        if joint:
            det = DetectorConfig(N=4, response=Linear(eta=0.8))
            stats = joint_click_statistics(tmsv_joint(0.6), det, det)
        else:
            det = DetectorConfig(N=8, response=Linear(eta=0.9))
            stats = click_statistics(fock_distribution(3), det)
        h = sample_clicks(stats, 20000, RngSeed(5))
        base = witness_report(estimate_statistics(h), 3.0)
        report = bootstrap_witness(h, 100, RngSeed(6))
        assert report.leading_minors == base.leading_minors
        assert report.min_eigenvalue == base.min_eigenvalue
        assert report.qb == base.qb
        assert report.cross_minor == base.cross_minor

    @pytest.mark.parametrize("N", [32, 40])
    def test_thermal_light_on_a_large_bank_not_flagged(self, N):
        # the replicas' high-order minors of a large bank sit far below
        # 1e-154, where squared deviations underflow; their spread read
        # exactly 0.0 and flagged a tiny negative point minor on every one
        # of these runs (a Fock-1 source on N = 8 stays flagged:
        # test_fock_one_flagged)
        det = DetectorConfig(N=N, response=Linear(eta=0.9))
        stats = click_statistics(thermal_distribution(1.0), det)
        for seed in range(6):
            h = sample_clicks(stats, 10**5, RngSeed(seed))
            report = bootstrap_witness(h, 200, RngSeed(seed + 1))
            assert report.verdict == "consistent-with-classical", seed

    @pytest.mark.parametrize("counts", [
        "fock", "tmsv",
        # about a third of the replicas draw no 2-click event: all their
        # events sit at k = 0, and they have no Q_B (den = 0)
        [499, 0, 1],
        # no replica has Q_B
        [5, 0, 0],
    ])
    def test_uncertainties_are_one_spread_per_criterion(self, counts):
        if counts == "fock":
            det = DetectorConfig(N=8, response=Linear(eta=0.9))
            h = sample_clicks(click_statistics(fock_distribution(2), det),
                              20000, RngSeed(5))
        elif counts == "tmsv":
            det = DetectorConfig(N=4, response=Linear(eta=0.8))
            h = sample_clicks(joint_click_statistics(tmsv_joint(0.6), det, det),
                              20000, RngSeed(5))
        else:
            h = ClickHistogram(np.array(counts))
        resamples, seed = 300, 17
        report = bootstrap_witness(h, resamples, RngSeed(seed))
        # the same stream as the bootstrap draws it
        weights = h.counts.ravel() / h.total
        draws = _generator(seed).multinomial(h.total, weights / weights.sum(),
                                             size=resamples)
        minors, name, values = _replicas(draws, h.total, h.counts.shape)
        u = report.uncertainties
        assert name == ("cross_minor" if h.is_joint else "qb")
        assert u["leading_minors"] == tuple(_spread(minors).tolist())
        if h.is_joint:
            assert u["cross_minor"] == float(_spread(values))
        elif len(values) >= 2:
            assert u["qb"] == float(_spread(values))
        else:
            assert "qb" not in u
        if counts == [499, 0, 1]:
            assert 2 <= len(values) < resamples

    def test_spread_survives_tiny_deviations(self):
        x = np.array([[1.0, 2.0, 4.0, 0.5], [3.0, 3.0, 3.0, 3.0]])
        for scale in (1e-200, 1.0, 1e200):
            got = _spread(x * scale)
            assert got[0] == pytest.approx(np.std(x[0], ddof=1) * scale,
                                           rel=1e-15)
            assert got[1] == 0.0


class TestHistogramCsv:
    def test_single_round_trip(self, tmp_path):
        h = ClickHistogram(np.array([5, 0, 3, 2]))
        path = tmp_path / "single.csv"
        write_histogram_csv(h, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "k,count"
        back = read_histogram_csv(path)
        assert np.array_equal(back.counts, h.counts)

    def test_joint_round_trip(self, tmp_path):
        h = ClickHistogram(np.array([[1, 2, 0], [0, 4, 5]]))
        path = tmp_path / "joint.csv"
        write_histogram_csv(h, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "k1,k2,count"
        back = read_histogram_csv(path)
        assert back.is_joint
        assert np.array_equal(back.counts, h.counts)

    @settings(max_examples=60, deadline=None)
    @given(counts=st.one_of(
        hnp.arrays(np.int64, st.integers(2, 17), elements=st.one_of(
            st.just(0), st.integers(0, 2 ** 62))),
        hnp.arrays(np.int64, st.tuples(st.integers(2, 9), st.integers(2, 9)),
                   elements=st.one_of(st.just(0), st.integers(0, 2 ** 62)))))
    def test_file_and_stdout_round_trip(self, counts):
        # N 1..16 for one bank, N1 and N2 1..8 for two, with zero rows;
        # the `sample` command prints its histogram through the same rows
        h = ClickHistogram(counts)
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            files = Path(tmp, "file.csv"), Path(tmp, "stdout.csv")
            write_histogram_csv(h, files[0])
            with mock.patch("clickstats.cli.sample_clicks", return_value=h), \
                    redirect_stdout(out):
                assert main(["sample", "--state", '{"kind": "fock", "n": 1}',
                             "--detector", '{"N": 2, "response": '
                             '{"kind": "linear", "eta": 0.5}}']) == 0
            files[1].write_text(out.getvalue(), encoding="utf-8")
            for path in files:
                assert np.array_equal(read_histogram_csv(path).counts, counts)

    @pytest.mark.parametrize("detectors", [1, 2])
    def test_file_equals_stdout_byte_for_byte(self, detectors, tmp_path,
                                              capsys):
        # one writer for click tables: LF line ends in the file too
        state = ('{"kind": "tmsv", "xi": 0.5}' if detectors == 2
                 else '{"kind": "thermal", "nbar": 1.0}')
        args = ["sample", "--state", state, "--samples", "1000", "--seed",
                "3"] + ["--detector", '{"N": 4, "response": '
                        '{"kind": "linear", "eta": 0.9}}'] * detectors
        assert main(args) == 0
        stdout = capsys.readouterr().out
        path = tmp_path / "f.csv"
        assert main(args + ["--out", str(path)]) == 0
        assert path.read_bytes() == stdout.encode("utf-8")
        assert b"\r" not in path.read_bytes()

    def test_sparse_and_shuffled_rows(self, tmp_path):
        path = tmp_path / "sparse.csv"
        path.write_text("k,count\n3,7\n0,1\n", encoding="utf-8")
        h = read_histogram_csv(path)
        assert np.array_equal(h.counts, np.array([1, 0, 0, 7]))

    def test_click_number_limit(self, tmp_path):
        # 170 diodes per bank is the largest file that is read; one more is
        # refused by the row, before any table is made
        path = tmp_path / "edge.csv"
        path.write_text("k1,k2,count\n170,170,1\n", encoding="utf-8")
        assert read_histogram_csv(path).counts.shape == (171, 171)
        for text in ("k,count\n171,1\n", "k1,k2,count\n0,171,1\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match="above 170"):
                read_histogram_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("clicks,count\n0,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_histogram_csv(path)

    def test_duplicate_rows(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("k,count\n0,1\n0,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            read_histogram_csv(path)

    def test_non_integer_rows(self, tmp_path):
        path = tmp_path / "nonint.csv"
        path.write_text("k,count\n0,1.5\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_histogram_csv(path)

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("k,count\n0,1\n\n , \n2,3\n", encoding="utf-8")
        assert np.array_equal(read_histogram_csv(path).counts, [1, 0, 3])

    @pytest.mark.parametrize("text,message", [
        ("k,count\n0,1,2\n", "malformed histogram row ['0', '1', '2']"),
        ("k1,k2,count\n0,1\n", "malformed histogram row ['0', '1']"),
        ("k,count\n0,-1\n", "negative value in histogram row ['0', '-1']"),
        ("k,count\n\n", "holds no histogram rows"),
    ], ids=["long-row", "short-row", "negative-count", "no-rows"])
    def test_bad_rows(self, text, message, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(message)):
            read_histogram_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            read_histogram_csv(path)
