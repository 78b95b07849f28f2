import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickstats.errors import (
    DescriptorError,
    NonHermitianResult,
    NormalizationViolation,
    OrderTooLow,
    SqueezingOutOfRange,
    ZeroAmplitude,
    ZeroMeanPhotonNumber,
)
from clickstats.series import PowerSeries, series_exp_neg
from clickstats.states import (
    CoherentSuperposition,
    JointPhotonDistribution,
    PhotonNumberDistribution,
    _MAX_CUTOFF,
    _check_cutoff,
    _cutoff,
    _superposition_expectation,
    coherent_distribution,
    fock_distribution,
    mandel_q,
    mixture_joint,
    nom_expectation,
    odd_coherent,
    product_joint,
    spats_distribution,
    state_from_descriptor,
    thermal_distribution,
    tmsv_joint,
)


def odd_poisson_weights(mu, nmax):
    # photon-number distribution of the odd superposition, p_n nonzero only
    # for odd n: p_n = 4 Nm^2 mu^n e^{-mu}/n!
    nm2 = 1.0 / (2.0 * (1.0 - math.exp(-2.0 * mu)))
    return [4.0 * nm2 * mu**n * math.exp(-mu) / math.factorial(n) if n % 2 else 0.0
            for n in range(nmax + 1)]


class TestCoherent:
    def test_vacuum(self):
        d = coherent_distribution(0.0)
        assert d.probs == (1.0,)
        assert d.tail_bound == 0.0

    def test_poisson_head(self):
        d = coherent_distribution(4.0)
        assert d.probs[0] == pytest.approx(math.exp(-4.0), rel=1e-14)
        assert d.probs[0] == pytest.approx(1.8316e-2, rel=1e-4)
        assert d.probs[3] == pytest.approx(math.exp(-4.0) * 64.0 / 6.0, rel=1e-13)

    def test_tail_bound_against_direct_sum(self):
        # the bound is the geometric majorant p_n r/(1-r), r = mu/(n+1), of
        # the Poisson mass beyond the cutoff n: never below that mass, and
        # above it by at most the factor 1/(1-r)
        d = coherent_distribution(1.0, tol=1e-15)
        assert d.tail_bound <= 1e-15
        n = d.cutoff
        with mp.workprec(200):
            true_tail = 1 - sum(mp.exp(-1) / mp.factorial(k)
                                for k in range(n + 1))
            r = mp.mpf(1) / (n + 1)
            majorant = mp.exp(-1) / mp.factorial(n) * r / (1 - r)
        assert true_tail <= d.tail_bound <= true_tail / (1 - r)
        assert d.tail_bound == pytest.approx(float(majorant), rel=1e-15, abs=0)

    def test_normalization_accounting(self):
        for mu in (0.3, 2.0, 16.0):
            d = coherent_distribution(mu)
            assert math.fsum(d.probs) + d.tail_bound == pytest.approx(1.0, abs=1e-13)


class TestThermal:
    def test_vacuum(self):
        assert thermal_distribution(0.0).probs == (1.0,)

    def test_nbar_one(self):
        d = thermal_distribution(1.0)
        assert d.probs[0] == pytest.approx(0.5, rel=1e-14)
        assert d.probs[1] == pytest.approx(0.25, rel=1e-14)

    def test_nbar_two_geometric(self):
        d = thermal_distribution(2.0)
        for n in range(8):
            assert d.probs[n] == pytest.approx(2.0**n / 3.0 ** (n + 1), rel=1e-13)

    def test_mean(self):
        d = thermal_distribution(1.7, tol=1e-16)
        mean = math.fsum(n * p for n, p in enumerate(d.probs))
        assert mean == pytest.approx(1.7, abs=1e-12)


class TestSpats:
    def test_no_vacuum_component(self):
        for nb in (0.0, 0.5, 3.0):
            assert spats_distribution(nb).probs[0] == 0.0

    def test_zero_nbar_is_single_photon(self):
        d = spats_distribution(0.0)
        assert d.probs == (0.0, 1.0)

    def test_nbar_one_closed_form(self):
        d = spats_distribution(1.0)
        for n in range(1, 10):
            assert d.probs[n] == pytest.approx(n / (4.0 * 2.0 ** (n - 1)), rel=1e-13)

    def test_mean_is_two_nbar_plus_one(self):
        # adding one photon to thermal light doubles the mean plus one:
        # <n> = sum n^2 q^{n-1} / (nb+1)^2 = 2 nb + 1
        for nb in (0.25, 1.0, 2.5):
            d = spats_distribution(nb, tol=1e-16)
            mean = math.fsum(n * p for n, p in enumerate(d.probs))
            assert mean == pytest.approx(2.0 * nb + 1.0, abs=1e-11)

    def test_tail_bound_is_exact_remainder(self):
        d = spats_distribution(0.8)
        assert math.fsum(d.probs) + d.tail_bound == pytest.approx(1.0, abs=1e-13)
        assert d.tail_bound <= 1e-14


class TestFock:
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_point_mass(self, n):
        d = fock_distribution(n)
        assert d.probs[n] == 1.0
        assert math.fsum(d.probs) == 1.0
        assert d.cutoff == n

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fock_distribution(-1)


class TestOddCoherent:
    def test_normalization_constant(self):
        st = odd_coherent(1.0)
        want = 1.0 / math.sqrt(2.0 * (1.0 - math.exp(-2.0)))
        assert st.terms[0][0] == pytest.approx(complex(want), rel=1e-13)
        assert want == pytest.approx(0.760434, abs=1e-6)

    def test_norm_is_one(self):
        for alpha in (0.3, 1.0, 2.0, 1.0 + 0.5j):
            st = odd_coherent(alpha)
            assert st.overlap_norm() == pytest.approx(1.0, abs=1e-12)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ZeroAmplitude):
            odd_coherent(0.0)

    def test_moments_match_odd_fock_sum(self):
        # brute-force oracle: <:n^m:> = sum over odd n of p_n * n^(m)
        mu = 1.44
        st = odd_coherent(math.sqrt(mu))
        weights = odd_poisson_weights(mu, 60)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-13)
        for m in range(1, 6):
            brute = math.fsum(p * math.perm(n, m)
                              for n, p in enumerate(weights))
            h = PowerSeries((0.0,) * m + (1.0,))
            assert nom_expectation(st, h) == pytest.approx(brute, rel=1e-11)

    def test_first_moment_closed_form(self):
        for mu in (0.5, 1.0, 4.0):
            st = odd_coherent(math.sqrt(mu))
            got = nom_expectation(st, PowerSeries((0.0, 1.0)))
            want = mu * (1.0 + math.exp(-2.0 * mu)) / (1.0 - math.exp(-2.0 * mu))
            assert got == pytest.approx(want, rel=1e-12)

    def test_even_moments_positive(self):
        st = odd_coherent(0.9)
        for m in (2, 4, 6):
            h = PowerSeries((0.0,) * m + (1.0,))
            assert nom_expectation(st, h) > 0.0


class TestTmsv:
    def test_zero_squeezing_is_vacuum(self):
        j = tmsv_joint(0.0)
        assert j.probs.shape == (1, 1)
        assert j.probs[0, 0] == 1.0

    def test_half_intensity_diagonal(self):
        j = tmsv_joint(math.sqrt(0.5))
        for n in range(5):
            assert j.probs[n, n] == pytest.approx(0.5 ** (n + 1), rel=1e-12)
        off = j.probs - np.diag(np.diag(j.probs))
        assert np.all(off == 0.0)

    def test_marginals_are_thermal(self):
        r = 0.5
        j = tmsv_joint(math.sqrt(r), tol=1e-14)
        want = thermal_distribution(r / (1.0 - r), tol=1e-14)
        for mode in (0, 1):
            got = j.marginal(mode)
            n = min(len(got.probs), len(want.probs))
            for k in range(n):
                assert got.probs[k] == pytest.approx(want.probs[k], abs=1e-12)

    def test_marginals_of_a_dense_table(self):
        # a product state keeps its dense table; each marginal sums it
        table = np.array([[0.5, 0.125], [0.25, 0.125]])
        j = JointPhotonDistribution(table)
        assert j.marginal(0).probs == (0.625, 0.375)
        assert j.marginal(1).probs == (0.75, 0.25)
        a = thermal_distribution(0.5, tol=1e-14)
        b = PhotonNumberDistribution((0.25, 0.5, 0.25))
        prod = product_joint(a, b)
        assert prod.probs.ndim == 2
        assert prod.marginal(1).probs == pytest.approx(b.probs, abs=1e-14)
        assert prod.marginal(0).probs == pytest.approx(a.probs, abs=1e-16)
        assert prod.marginal(0).tail_bound == prod.tail_bound

    def test_cutoff_without_a_table(self):
        # |xi|^2 = 0.999 at tol 1e-14 keeps about 32,000 levels, a dense
        # table of 8 GB; the state holds the diagonal alone
        x = math.sqrt(0.999)
        r = x ** 2
        tracemalloc.start()
        try:
            j = tmsv_joint(x, tol=1e-14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        c = j.cutoffs[0]
        assert j.cutoffs == (c, c) and 32000 < c < 33000
        # the least cutoff whose tail falls below tol
        assert r ** (c + 1) <= 1e-14 < r ** c and j.tail_bound == r ** (c + 1)
        assert peak < 4 * 8 * (c + 1)

    def test_out_of_range(self):
        with pytest.raises(SqueezingOutOfRange):
            tmsv_joint(1.0)
        with pytest.raises(SqueezingOutOfRange):
            tmsv_joint(1.2j)


class TestJointHelpers:
    def test_product_outer(self):
        a = coherent_distribution(0.5)
        b = thermal_distribution(0.3)
        j = product_joint(a, b)
        assert j.probs[2, 1] == pytest.approx(a.probs[2] * b.probs[1], rel=1e-13)

    def test_mixture_weights(self):
        a = product_joint(coherent_distribution(0.5), coherent_distribution(0.2))
        b = product_joint(coherent_distribution(1.5), coherent_distribution(1.0))
        m = mixture_joint([0.25, 0.75], [a, b])
        s0 = a.probs.shape
        assert m.probs[0, 0] == pytest.approx(
            0.25 * a.probs[0, 0] + 0.75 * b.probs[0, 0], rel=1e-13)
        assert m.probs.shape[0] == max(s0[0], b.probs.shape[0])

    def test_mixture_validates(self):
        a = product_joint(coherent_distribution(0.5), coherent_distribution(0.2))
        with pytest.raises(ValueError):
            mixture_joint([0.5, 0.4], [a, a])

    def test_writable_table_is_copied(self):
        table = np.array([[0.5, 0.25], [0.0, 0.25]])
        j = JointPhotonDistribution(table)
        table[0, 0] = 7.0
        assert j.probs[0, 0] == 0.5 and not j.probs.flags.writeable
        # a read-only view does not own its data: the base stays writable
        base = np.array([[0.5, 0.25], [0.0, 0.25]])
        view = base[:]
        view.setflags(write=False)
        j = JointPhotonDistribution(view)
        base[0, 0] = 7.0
        assert j.probs[0, 0] == 0.5

    def test_read_only_table_is_copied(self):
        # a caller that handed over a read-only table cannot switch writes
        # back on and change the state
        a = np.array([[0.5, 0.25], [0.0, 0.25]])
        a.setflags(write=False)
        j = JointPhotonDistribution(a)
        a.setflags(write=True)
        a[0, 0] = 7.0
        assert j.probs[0, 0] == 0.5 and not j.probs.flags.writeable

    @pytest.mark.parametrize("build,ndim", [
        (lambda: tmsv_joint(0.9), 1),
        (lambda: product_joint(coherent_distribution(0.5),
                               thermal_distribution(0.3)), 2),
        (lambda: mixture_joint([0.25, 0.75], [tmsv_joint(0.5), tmsv_joint(0.7)]),
         2),
    ], ids=["tmsv", "product", "mixture"])
    def test_fresh_tables_are_not_copied(self, build, ndim, monkeypatch):
        # the builders hand their own arrays over uncopied: the diagonal of
        # a squeezed vacuum, the table of the others
        handed = []
        original = JointPhotonDistribution._own.__func__

        def spy(cls, values, tail_bound):
            handed.append(values)
            return original(cls, values, tail_bound)

        monkeypatch.setattr(JointPhotonDistribution, "_own", classmethod(spy))
        j = build()
        kept = j._table
        assert kept is handed[-1] and kept.ndim == ndim
        assert ndim == 1 or j.probs is kept
        assert not kept.flags.writeable and not j.probs.flags.writeable


class TestNomExpectation:
    def test_vacuum_picks_constant(self):
        d = fock_distribution(0)
        assert nom_expectation(d, PowerSeries((0.625, 3.0))) == pytest.approx(0.625)

    def test_coherent_exponential_closed_form(self):
        # on a coherent state a normally ordered function becomes a function
        # of the intensity: <:e^{-g n}:> = e^{-g mu}
        for mu, g in ((0.5, 0.2), (4.0, 0.9), (9.0, 0.35)):
            d = coherent_distribution(mu, tol=1e-16)
            h = series_exp_neg(PowerSeries((0.0, g)), s=1.0, order=d.cutoff)
            assert nom_expectation(d, h) == pytest.approx(
                math.exp(-g * mu), rel=1e-11)

    def test_order_too_low(self):
        d = coherent_distribution(1.0)
        with pytest.raises(OrderTooLow):
            nom_expectation(d, PowerSeries((1.0, -0.5)))

    def test_hermiticity_canary(self):
        # complex series coefficients break the hermitian symmetry of the
        # quadratic form; the canary must fire rather than return junk
        st = odd_coherent(1.0)
        with mp.workprec(120):
            with pytest.raises(NonHermitianResult):
                _superposition_expectation(st.terms, PowerSeries((0.0, 1.0j)))


class TestMandelQ:
    def test_poisson_is_zero(self):
        assert mandel_q(coherent_distribution(3.0)) == pytest.approx(0.0, abs=1e-9)

    def test_fock_one(self):
        assert mandel_q(fock_distribution(1)) == pytest.approx(-1.0, abs=1e-14)

    def test_thermal(self):
        assert mandel_q(thermal_distribution(2.0)) == pytest.approx(2.0, abs=1e-9)

    def test_vacuum_rejected(self):
        with pytest.raises(ZeroMeanPhotonNumber):
            mandel_q(fock_distribution(0))

    def test_odd_coherent_against_fock_sum(self):
        mu = 0.8
        st = odd_coherent(math.sqrt(mu))
        weights = odd_poisson_weights(mu, 50)
        mean = math.fsum(n * p for n, p in enumerate(weights))
        second = math.fsum(n * n * p for n, p in enumerate(weights))
        want = (second - mean * mean) / mean - 1.0
        assert mandel_q(st) == pytest.approx(want, rel=1e-10)


class TestValidation:
    def test_distribution_rejects_negative(self):
        with pytest.raises(ValueError):
            PhotonNumberDistribution((0.5, -0.1, 0.6))

    def test_distribution_rejects_bad_norm(self):
        with pytest.raises(NormalizationViolation):
            PhotonNumberDistribution((0.5, 0.4))

    def test_joint_rejects_bad_norm(self):
        with pytest.raises(NormalizationViolation):
            JointPhotonDistribution(np.array([[0.7, 0.0], [0.0, 0.2]]))

    @pytest.mark.parametrize("writable", [True, False])
    def test_joint_rejects_negative_and_nan(self, writable):
        for bad, error in (([[1.2, -0.2], [0.0, 0.0]], ValueError),
                           ([[math.nan, 0.5], [0.5, 0.0]],
                            NormalizationViolation)):
            table = np.array(bad)
            table.setflags(write=writable)
            with pytest.raises(error):
                JointPhotonDistribution(table)

    def test_superposition_rejects_bad_norm(self):
        with pytest.raises(NormalizationViolation):
            CoherentSuperposition(((1.0, 1.0), (1.0, -1.0)))


def scan_cutoff(tail, tol, lo):
    """The least cutoff M >= lo with tail(M) <= tol, scanned up from lo."""
    m = lo
    while tail(m) > tol:
        m += 1
    return m


TOLS = st.one_of(st.sampled_from([0.5, 1e-300, 1e-14]),
                 st.floats(1e-300, 0.5))


@st.composite
def ratios(draw, tols=TOLS):
    """(q, tol): a tail ratio q in (0, 1) and a tolerance, either anywhere
    or with log(tol)/log(q), the number of photon numbers the tail needs,
    within 1% of _MAX_CUTOFF."""
    tol = draw(tols)
    if draw(st.booleans()):
        return draw(st.floats(1e-300, 1.0, exclude_max=True)), tol
    steps = _MAX_CUTOFF * draw(st.floats(0.99, 1.01))
    return math.exp(math.log(tol) / steps), tol


def refused(q, tol):
    return not math.log(tol) / math.log(q) <= _MAX_CUTOFF


def geometric_tail(q):
    """Thermal light's and squeezed vacuum's tail past M, q^(M+1)."""
    return lambda m: q ** (m + 1)


def spats_tail(q, nbar):
    """The tail past M of a photon added to thermal light of mean nbar."""
    return lambda m: q ** m * (m + 1.0 + nbar) / (nbar + 1.0)


# the thermal and spats tables lose about (nbar + 1) 2^-53 of their
# normalization to the rounding of q (see CHANGES.md), which the 1e-12 check
# holds only up to nbar of a few thousand; their tables are built up to
# here, and the search itself is checked on its own over the whole range
_TABLE_NBAR = 4000.0
# tolerances whose cutoffs reach _MAX_CUTOFF below _TABLE_NBAR
TABLE_TOLS = st.one_of(st.sampled_from([1e-300, 1e-14]),
                       st.floats(1e-300, 1e-13))


class TestCutoffs:
    """Cutoffs start from the closed form log(tol)/log(q) and must equal a
    scan from the first photon number up; past _MAX_CUTOFF photon numbers
    every family refuses the tolerance."""

    @settings(max_examples=200, deadline=None)
    @given(ratio=ratios(), spats=st.booleans(),
           offset=st.integers(-1000, 1000))
    def test_search_from_any_estimate(self, ratio, spats, offset):
        q, tol = ratio
        nbar = q / (1.0 - q)
        q = nbar / (nbar + 1.0)
        if not 0.0 < q < 1.0:
            return
        if refused(q, tol):
            with pytest.raises(ValueError, match=str(_MAX_CUTOFF)):
                _check_cutoff(q, tol)
            return
        assert _check_cutoff(q, tol) == math.log(tol) / math.log(q)
        tail, lo = (spats_tail(q, nbar), 1) if spats else (geometric_tail(q), 0)
        want = scan_cutoff(tail, tol, lo)
        assert _cutoff(tail, tol, want + offset, lo) == want

    @settings(max_examples=150, deadline=None)
    @given(ratio=ratios(TABLE_TOLS), spats=st.booleans())
    def test_thermal_and_spats(self, ratio, spats):
        q, tol = ratio
        nbar = q / (1.0 - q)
        if not nbar <= _TABLE_NBAR:
            return
        q = nbar / (nbar + 1.0)  # as the families form it
        build, tail, lo = ((spats_distribution, spats_tail(q, nbar), 1)
                           if spats else
                           (thermal_distribution, geometric_tail(q), 0))
        # thermal: the q^M test; spats: the scanned cutoff exceeds
        # _MAX_CUTOFF (its tail is at least q^M, so a q^M refusal implies
        # that and spares the long scan)
        if spats:
            want = None if refused(q, tol) else scan_cutoff(tail, tol, lo)
            refuse = want is None or want > _MAX_CUTOFF
        else:
            refuse = refused(q, tol)
        if refuse:
            with pytest.raises(ValueError, match=str(_MAX_CUTOFF)):
                build(nbar, tol)
            return
        d = build(nbar, tol)
        assert d.cutoff == scan_cutoff(tail, tol, lo)
        assert d.tail_bound == tail(d.cutoff)

    @settings(max_examples=150, deadline=None)
    @given(ratio=ratios())
    def test_tmsv(self, ratio):
        r, tol = ratio
        xi = math.sqrt(r)
        r = abs(complex(xi)) ** 2  # as tmsv_joint forms it
        if r == 0.0:
            return
        if refused(r, tol):
            with pytest.raises(ValueError, match=str(_MAX_CUTOFF)):
                tmsv_joint(xi, tol)
            return
        j = tmsv_joint(xi, tol)
        assert j.cutoffs[0] == scan_cutoff(geometric_tail(r), tol, 0)
        assert j.tail_bound == r ** (j.cutoffs[0] + 1)

    @pytest.mark.parametrize("tol", [0.5, 1e-14, 1e-300])
    def test_edges_of_the_check(self, tol):
        # the largest |xi|^2 a tolerance lets through, and the next float up
        r = math.exp(math.log(tol) / _MAX_CUTOFF)
        while refused(r, tol):
            r = math.nextafter(r, 0.0)
        while not refused(math.nextafter(r, 1.0), tol):
            r = math.nextafter(r, 1.0)
        for ratio in (r, math.nextafter(r, 1.0)):
            xi = math.sqrt(ratio)
            rr = abs(complex(xi)) ** 2
            if refused(rr, tol):
                with pytest.raises(ValueError, match=str(_MAX_CUTOFF)):
                    tmsv_joint(xi, tol)
            else:
                assert (tmsv_joint(xi, tol).cutoffs[0]
                        == scan_cutoff(geometric_tail(rr), tol, 0))
            steps = math.log(tol) / math.log(ratio)
            assert steps > 0.99 * _MAX_CUTOFF
            if refused(ratio, tol):
                with pytest.raises(ValueError):
                    _check_cutoff(ratio, tol)
            else:
                assert _cutoff(geometric_tail(ratio), tol, steps - 1, 0) == (
                    scan_cutoff(geometric_tail(ratio), tol, 0))


class TestDescriptors:
    @pytest.mark.parametrize("desc,typ", [
        ({"kind": "coherent", "mean_photons": 2.0}, PhotonNumberDistribution),
        ({"kind": "thermal", "nbar": 1.0}, PhotonNumberDistribution),
        ({"kind": "spats", "nbar": 0.5}, PhotonNumberDistribution),
        ({"kind": "fock", "n": 1}, PhotonNumberDistribution),
        ({"kind": "odd_coherent", "alpha": 1.0}, CoherentSuperposition),
        ({"kind": "odd_coherent", "alpha": [1.0, 0.5]}, CoherentSuperposition),
        ({"kind": "tmsv", "xi": 0.6}, JointPhotonDistribution),
    ])
    def test_kinds(self, desc, typ):
        assert isinstance(state_from_descriptor(desc), typ)

    def test_tol_forwarded(self):
        loose = state_from_descriptor({"kind": "thermal", "nbar": 1.0, "tol": 1e-6})
        tight = state_from_descriptor({"kind": "thermal", "nbar": 1.0, "tol": 1e-14})
        assert loose.cutoff < tight.cutoff

    def test_unknown_kind(self):
        with pytest.raises(DescriptorError):
            state_from_descriptor({"kind": "squeezed"})

    def test_missing_field(self):
        with pytest.raises(DescriptorError):
            state_from_descriptor({"kind": "coherent"})

    @pytest.mark.parametrize("desc,field", [
        ({"kind": "thermal", "nbar": "3"}, "nbar"),
        ({"kind": "spats", "nbar": True}, "nbar"),
        ({"kind": "coherent", "mean_photons": "1"}, "mean_photons"),
        ({"kind": "odd_coherent", "alpha": "1"}, "alpha"),
        ({"kind": "odd_coherent", "alpha": True}, "alpha"),
        ({"kind": "tmsv", "xi": ["0.5", "0"]}, "xi"),
        ({"kind": "fock", "n": "3"}, "n"),
        ({"kind": "thermal", "nbar": 1.0, "tol": "x"}, "tol"),
        ({"kind": "thermal", "nbar": 1.0, "tol": "1e-6"}, "tol"),
        ({"kind": "thermal", "nbar": 1.0, "tol": None}, "tol"),
        ({"kind": "thermal", "nbar": 10 ** 400}, "nbar"),
    ])
    def test_numbers_are_json_numbers(self, desc, field):
        # a string, bool or null is refused, not parsed, and named
        with pytest.raises(DescriptorError, match=f"^{field} must be"):
            state_from_descriptor(desc)

    def test_integral_numbers_are_read(self):
        # a JSON int is a number wherever a float is
        assert state_from_descriptor({"kind": "thermal", "nbar": 1}) == (
            state_from_descriptor({"kind": "thermal", "nbar": 1.0}))
        assert state_from_descriptor(
            {"kind": "odd_coherent", "alpha": [1, 0]}).terms == (
            state_from_descriptor({"kind": "odd_coherent", "alpha": 1.0}).terms)
