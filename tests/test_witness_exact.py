"""The witness is exact for the numbers it is given.

Every float and every mpf is a dyadic rational and every inverse formula has
integer weights, so moments, leading minors, Q_B and the cross minor must be
the correctly rounded values of an exact rational computation.  The
reference, in `exact_kernels`, is written from the formulas alone, on
`fractions.Fraction`, with ordinary Gaussian elimination for the
determinants; it shares no code with the program's inverse path.  Inputs
cover empirical floats, the forward model's Fractions (formal statistics on
finite tables, which are signed, and coherent superpositions on their grid),
single and joint banks, and matrices whose leading minors vanish.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickstats import (
    Affine,
    ClickStatistics,
    DetectorConfig,
    JointClickStatistics,
    Linear,
    NPhotonAbsorption,
    PolynomialSeries,
    Power,
    click_statistics,
    coherent_distribution,
    fock_distribution,
    joint_click_statistics,
    odd_coherent,
    product_joint,
    spats_distribution,
    thermal_distribution,
    tmsv_joint,
)
from clickstats.errors import DegenerateMean, OrderExceedsDiodes
from clickstats.witness import (
    _leading_minors,
    cross_correlation_minor,
    joint_moment_matrix,
    joint_pi_moments,
    leading_principal_minors,
    moment_matrix,
    pi_moments,
    qb_parameter,
    witness_report,
)
from exact_kernels import (
    cross_ref,
    det,
    graded_ref,
    hankel_ref,
    joint_pi_ref,
    minors_ref,
    numbers,
    pi_ref,
    qb_decision_ref,
    qb_ref,
    witness_ref,
)


def check_single(stats):
    N = stats.N
    c = numbers(stats)
    mom = pi_moments(stats)
    ref = pi_ref(c, N)
    assert mom.exact == tuple(ref)
    assert mom.values == tuple(map(float, ref))
    assert (leading_principal_minors(moment_matrix(mom, N))
            == minors_ref(hankel_ref(ref, N)))
    try:
        qb = qb_parameter(stats)
    except DegenerateMean:
        return
    assert qb == qb_ref(c, N)


def check_joint(stats):
    N1, N2 = stats.N1, stats.N2
    mom = joint_pi_moments(stats)
    ref = joint_pi_ref(numbers(stats), N1, N2)
    assert mom.exact == tuple(map(tuple, ref))
    assert (leading_principal_minors(joint_moment_matrix(mom, N1, N2))
            == minors_ref(graded_ref(ref, N1, N2)))
    if N1 < 2 or N2 < 2:
        with pytest.raises(OrderExceedsDiodes):
            cross_correlation_minor(stats)
        return
    assert cross_correlation_minor(stats) == cross_ref(ref)
    assert witness_report(stats).cross_minor == cross_ref(ref)


# --- inputs ---------------------------------------------------------------------

WEIGHTS = st.floats(0.0, 1.0).filter(lambda w: w == 0.0 or w > 1e-300)


@st.composite
def float_statistics(draw):
    N = draw(st.integers(1, 8))
    w = draw(st.lists(WEIGHTS, min_size=N + 1, max_size=N + 1)
             .filter(lambda w: sum(w) > 0.0))
    total = math.fsum(w)
    return ClickStatistics(N, tuple(x / total for x in w))


STATES = st.one_of(
    st.builds(thermal_distribution, st.floats(0.0, 3.0)),
    st.builds(spats_distribution, st.floats(0.01, 3.0)),
    st.builds(coherent_distribution, st.floats(0.0, 5.0)),
    st.builds(fock_distribution, st.integers(0, 12)),
)
PHYSICAL = st.one_of(st.builds(Linear, st.floats(0.05, 1.0)),
                     st.builds(NPhotonAbsorption, st.integers(2, 3)))


@st.composite
def model_statistics(draw):
    N = draw(st.integers(1, 8))
    if draw(st.booleans()):
        # formal statistics: signed exact Fractions
        return click_statistics(fock_distribution(draw(st.integers(0, 20))),
                                DetectorConfig(N, Power(2)))
    return click_statistics(draw(STATES), DetectorConfig(N, draw(PHYSICAL)))


@st.composite
def joint_float_statistics(draw):
    N1, N2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    w = draw(st.lists(WEIGHTS, min_size=(N1 + 1) * (N2 + 1),
                      max_size=(N1 + 1) * (N2 + 1))
             .filter(lambda w: sum(w) > 0.0))
    total = math.fsum(w)
    table = [[w[i * (N2 + 1) + j] / total for j in range(N2 + 1)]
             for i in range(N1 + 1)]
    return JointClickStatistics(N1, N2, table)


@st.composite
def joint_model_statistics(draw):
    dets = [DetectorConfig(draw(st.integers(1, 4)), Linear(draw(
        st.floats(0.05, 1.0)))) for _ in range(2)]
    if draw(st.booleans()):
        state = tmsv_joint(draw(st.floats(0.0, 0.9)))
    else:
        state = product_joint(fock_distribution(draw(st.integers(0, 3))),
                              fock_distribution(draw(st.integers(0, 3))))
    return joint_click_statistics(state, *dets)


# --- the tests --------------------------------------------------------------------


class TestAgainstRationalReference:
    @settings(max_examples=60, deadline=None)
    @given(stats=st.one_of(float_statistics(), model_statistics()))
    def test_single_bank(self, stats):
        check_single(stats)

    @settings(max_examples=40, deadline=None)
    @given(stats=st.one_of(joint_float_statistics(), joint_model_statistics()))
    def test_two_banks(self, stats):
        check_joint(stats)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("resp", [Linear(0.9), Power(2)],
                             ids=["linear", "power2"])
    def test_zero_pivots(self, n, resp):
        # vacuum gives minors (1, 0, 0, 0, 0); Fock n has zero moments
        # beyond order n, so the matrices have zero rows
        stats = click_statistics(fock_distribution(n), DetectorConfig(8, resp))
        check_single(stats)
        minors = leading_principal_minors(moment_matrix(pi_moments(stats), 8))
        assert minors[n + 1:] == (0.0,) * (4 - n)
        if n == 0:
            assert minors == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_signed_mpf_inputs(self):
        # Fock 20 on a two-photon absorber bank: formal statistics with
        # negative exact values, which must keep their sign
        stats = click_statistics(fock_distribution(20),
                                 DetectorConfig(8, Power(2)))
        assert stats.formal and min(stats.exact) < 0
        check_single(stats)

    def test_vacuum_two_banks(self):
        det = DetectorConfig(4, Linear(0.8))
        check_joint(joint_click_statistics(
            product_joint(fock_distribution(0), fock_distribution(0)),
            det, det))


ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-10 ** 40, 10 ** 40))


@st.composite
def planted_matrices(draw):
    """Integer matrices of size 1..9 in which some leading block has a row
    that is an integer combination of the rows above it (a zero row when
    it is the first), so that its minor and possibly the first pivot vanish
    while larger blocks need not."""
    d = draw(st.integers(1, 9))
    a = [draw(st.lists(ENTRIES, min_size=d, max_size=d)) for _ in range(d)]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(1, d))
        r = draw(st.integers(0, k - 1))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
        for j in range(k):
            a[r][j] = sum(c * a[i][j] for i, c in enumerate(coeffs))
    return a


@st.composite
def symmetric_planted_matrices(draw):
    """Symmetric integer matrices of size 1..9 in which some leading block
    has a row (and so a column) that is an integer combination of the rows
    above it within the block, a zero row and column when it is the first:
    zero pivots and rank-deficient blocks, with larger blocks that need
    not be singular."""
    d = draw(st.integers(1, 9))
    a = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            a[i][j] = a[j][i] = draw(ENTRIES)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(1, d))
        r = draw(st.integers(0, k - 1))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
        for j in range(k):
            if j != r:
                a[r][j] = a[j][r] = sum(c * a[i][j] for i, c in enumerate(coeffs))
        a[r][r] = sum(c * a[i][r] for i, c in enumerate(coeffs))
    return a


class TestOnePassMinors:
    @settings(max_examples=300, deadline=None)
    @given(a=planted_matrices())
    def test_all_leading_minors_from_one_pass(self, a):
        # every pivot of the elimination is a leading minor; past a zero
        # pivot the blocks are eliminated again with row exchanges
        copy = [row[:] for row in a]
        got = _leading_minors(a)
        assert a == copy
        exact = [[Fraction(x) for x in row] for row in a]
        assert got == [det([row[:k] for row in exact[:k]])
                       for k in range(1, len(a) + 1)]

    @settings(max_examples=300, deadline=None)
    @given(a=symmetric_planted_matrices())
    def test_symmetric_matrices_from_the_upper_triangle(self, a):
        # a symmetric matrix is eliminated on its upper triangle alone
        assert all(a[i][j] == a[j][i] for i in range(len(a)) for j in range(i))
        copy = [row[:] for row in a]
        got = _leading_minors(a)
        assert a == copy
        exact = [[Fraction(x) for x in row] for row in a]
        assert got == [det([row[:k] for row in exact[:k]])
                       for k in range(1, len(a) + 1)]

    def test_zero_first_pivot_with_regular_blocks_after(self):
        assert _leading_minors([[0, 1, 2], [1, 0, 3], [2, 3, 5]]) == [0, -1, 7]

    @pytest.mark.parametrize("a", [
        # Hankel moments of 2, 3 and 1 at the points 1, 2 and 5: rank 3
        [[sum(w * x ** (i + j) for w, x in ((2, 1), (3, 2), (1, 5)))
          for j in range(6)] for i in range(6)],
        # row 1 eliminates to zero, column 1 does not
        [[1, 2, 3], [2, 4, 6], [5, 7, 1]],
    ], ids=["hankel-rank-3", "zero-row"])
    def test_zero_tail_needs_no_determinant(self, a):
        # a zero pivot over a zero row makes every larger leading minor 0
        # (Sylvester's identity), so no block is eliminated again
        with mock.patch("clickstats.witness._det", side_effect=AssertionError):
            got = _leading_minors(a)
        exact = [[Fraction(x) for x in row] for row in a]
        assert got == [det([row[:k] for row in exact[:k]])
                       for k in range(1, len(a) + 1)]
        assert got[-1] == 0


@st.composite
def binomial_mixtures(draw):
    N = draw(st.integers(1, 8))
    parts = draw(st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(0.0, 1.0)),
                          min_size=1, max_size=4))
    total = math.fsum(w for w, _ in parts)
    probs = tuple(math.fsum(w / total * math.comb(N, k) * p ** k
                            * (1 - p) ** (N - k) for w, p in parts)
                  for k in range(N + 1))
    return ClickStatistics(N, probs)


class TestClassicalNeverFlagged:
    @settings(max_examples=100, deadline=None)
    @given(stats=binomial_mixtures())
    def test_binomial_mixtures(self, stats):
        # a mixture of binomial click statistics is what any classical
        # (Poisson-mixture) light gives a linear bank; no criterion may flag it
        assert witness_report(stats).verdict == "consistent-with-classical"


ERROR_BOUNDS = st.sampled_from(
    [0.0, 1e-300, 1e-17, 1e-13, 1e-9, 1e-3, 0.3, 1e308, math.inf])


@st.composite
def qb_statistics(draw):
    """Binomial mixtures with stated errors, some of them infinite or
    overflowing, and truncated tables whose missing mass, up to the whole
    of a finite norm_slack, sits in the slack."""
    base = draw(binomial_mixtures())
    slack = draw(st.sampled_from([0.0, 1e-15, 1e-13, 1e-12, 1e-6, math.inf]))
    cut = draw(st.sampled_from([0.0, 0.5, 1.0])) * min(slack, 1e-3)
    return ClickStatistics(base.N, tuple(p * (1.0 - cut) for p in base.probs),
                           norm_slack=slack, exact_error=draw(ERROR_BOUNDS),
                           relative_error=draw(ERROR_BOUNDS))


def decided_qb(stats):
    try:
        return qb_parameter(stats)
    except DegenerateMean:
        return None


class TestQbDecisions:
    @settings(max_examples=300, deadline=None)
    @given(stats=qb_statistics())
    def test_against_fractions(self, stats):
        # the integer comparisons of the mean with the float bounds decide
        # as exact Fraction comparisons do, and Q_B is the rounded exact value
        assert decided_qb(stats) == qb_decision_ref(stats)

    @pytest.mark.parametrize("p, fields, withheld", [
        (0.3, {}, False),
        (0.0, {}, True),                                  # mean 0
        (1.0, {}, True),                                  # mean N
        (0.3, {"relative_error": math.inf}, True),        # err = inf
        (0.0, {"relative_error": math.inf}, True),        # err = inf * 0 = nan
        (0.3, {"exact_error": 1e308}, True),              # err overflows
        (0.3, {"norm_slack": math.inf}, True),            # N - err - tail = -inf
        (0.3, {"exact_error": 0.05}, True),               # spread not resolved
    ])
    def test_withheld_and_non_finite_bounds(self, p, fields, withheld):
        N = 4
        probs = tuple(math.comb(N, k) * p ** k * (1 - p) ** (N - k)
                      for k in range(N + 1))
        stats = ClickStatistics(N, probs, **fields)
        want = qb_decision_ref(stats)
        assert (want is None) == withheld
        assert decided_qb(stats) == want


# --- whole reports against the reference -----------------------------------------

FLOAT_BANKS = st.one_of(
    st.builds(Linear, st.floats(0.05, 1.0)),
    st.builds(Affine, st.floats(0.05, 1.0), st.floats(0.0, 0.5)))
FORMAL = st.one_of(
    st.builds(Power, st.integers(2, 3)),
    st.builds(lambda a, b: PolynomialSeries((0.0, a, b)),
              st.floats(0.1, 1.0), st.floats(0.01, 0.5)))


@st.composite
def report_statistics(draw):
    """Single-bank statistics of each number type the forward model gives:
    floats (linear and affine banks), Fractions (formal responses on Fock
    states and odd coherent states), and vacuum and Fock 1, whose
    matrices have zero pivots."""
    N = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["float", "fraction", "superposition",
                                 "zero-pivot"]))
    if kind == "float":
        state, resp = draw(STATES), draw(FLOAT_BANKS)
    elif kind == "fraction":
        state, resp = fock_distribution(draw(st.integers(0, 12))), draw(FORMAL)
    elif kind == "superposition":
        state = odd_coherent(draw(st.floats(0.3, 2.0)))
        resp = Linear(draw(st.floats(0.05, 1.0)))
    else:
        state = fock_distribution(draw(st.integers(0, 1)))
        resp = Linear(draw(st.floats(0.05, 1.0)))
    return click_statistics(state, DetectorConfig(N, resp))


@st.composite
def joint_report_statistics(draw):
    """Two-bank statistics: floats of squeezed vacuum on linear and affine
    banks, Fractions of Fock products on formal banks, and vacuum and Fock 1
    products, whose matrices have zero pivots."""
    # a joint report needs the cross minor, so two diodes per bank or more
    Ns = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["float", "fraction", "zero-pivot"]))
    if kind == "float":
        state = tmsv_joint(draw(st.floats(0.0, 0.95)))
        resps = draw(FLOAT_BANKS), draw(FLOAT_BANKS)
    elif kind == "fraction":
        state = product_joint(fock_distribution(draw(st.integers(0, 4))),
                              fock_distribution(draw(st.integers(0, 4))))
        resps = draw(FORMAL), draw(FORMAL)
    else:
        state = product_joint(fock_distribution(draw(st.integers(0, 1))),
                              fock_distribution(draw(st.integers(0, 1))))
        resps = Linear(draw(st.floats(0.05, 1.0))), Linear(1.0)
    return joint_click_statistics(
        state, *(DetectorConfig(N, r) for N, r in zip(Ns, resps)))


def check_report(stats, moments, matrix):
    """Moments, their lazily made exact fields, the matrix, the minors and
    the whole report equal the reference bit for bit."""
    ref = witness_ref(stats)
    mom = moments(stats)
    if isinstance(stats, JointClickStatistics):
        assert mom.exact == tuple(map(tuple, ref["moments"]))
        flat = sum(mom.exact, ())
    else:
        assert mom.exact == tuple(ref["moments"])
        flat = mom.exact
    assert all(type(x) is Fraction for x in flat)
    M = matrix(mom)
    assert M.exact == tuple(map(tuple, ref["matrix"]))
    assert M.entries.tolist() == [list(map(float, row)) for row in ref["matrix"]]
    assert leading_principal_minors(M) == ref["minors"]
    report = witness_report(stats)
    assert report.leading_minors == ref["minors"]
    assert report.min_eigenvalue == ref["mineig"]
    assert report.cross_minor == ref["cross"]
    # Q_B may be withheld where the stated errors leave it unresolved; it is
    # always withheld when the mean is 0 or N
    assert report.qb in (None, ref["qb"])
    criteria = [*ref["minors"][1:], ref["mineig"]] + [
        x for x in (report.qb, ref["cross"]) if x is not None]
    assert report.verdict == ("nonclassical" if min(criteria) < -1e-9
                              else "consistent-with-classical")


class TestReportsAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(stats=report_statistics())
    def test_single_bank(self, stats):
        check_report(stats, pi_moments, lambda mom: moment_matrix(mom, stats.N))

    @settings(max_examples=60, deadline=None)
    @given(stats=joint_report_statistics())
    def test_two_banks(self, stats):
        check_report(stats, joint_pi_moments, lambda mom: joint_moment_matrix(
            mom, stats.N1, stats.N2))
