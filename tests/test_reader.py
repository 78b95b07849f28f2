"""The one reader of the tables a caller hands the library (`series._reals`),
through every constructor that takes one.

A real number of any numeric type (float, int, bool, Fraction, mpf, numpy
float32 or float64) is stored as the float it is, `float(x)`, exactly as
the constructors' separate reads stored it before; a string, None or
complex number is a TypeError wherever it sits, also inside a numpy array;
a table of another shape is a ValueError; and a caller's array is left as
it was, writeable, and does not share memory with what is kept.
"""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickstats import (
    ClickStatistics,
    JointClickStatistics,
    JointPhotonDistribution,
    JointPiMoments,
    MomentMatrix,
    PhotonNumberDistribution,
    PiMoments,
    PolynomialSeries,
)

# probability tables are multiples of 2^-20 that sum to one: exact in every
# numeric type drawn, float32 included
_UNIT = 2 ** 20


def _forms(x) -> list:
    """x (a float or an int) in every numeric type that holds it exactly."""
    forms = [x, Fraction(x), mp.mpf(x), np.float64(x)]
    with np.errstate(over="ignore"):
        if float(np.float32(x)) == x:
            forms.append(np.float32(x))
    if float(x).is_integer():
        forms.append(int(x))
    if x in (0, 1):
        forms.append(bool(x))
    return forms


@st.composite
def _probabilities(draw, size):
    cuts = sorted(draw(st.lists(st.integers(0, _UNIT), min_size=size - 1,
                                max_size=size - 1)))
    return [(b - a) / _UNIT for a, b in zip([0] + cuts, cuts + [_UNIT])]


def _free(size):
    """Any finite reals: floats of either width, and integers past 2^63."""
    return st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(width=32, allow_nan=False,
                                        allow_infinity=False),
                              st.integers(-2 ** 70, 2 ** 70)),
                    min_size=size, max_size=size)


@st.composite
def _moments(draw, size):
    return [1.0] + draw(_free(size - 1))


@st.composite
def _nonnegative(draw, size):
    return draw(st.lists(st.integers(0, _UNIT).map(lambda k: k / _UNIT),
                         min_size=size, max_size=size))


# name: (axes, table of numbers of that size, constructor on a table, its
# shape and standard errors, and the stored tables, each with the index of
# what it was read from: 0 the table, 1 the standard errors)
_CONSTRUCTORS = {
    "click": (1, _probabilities,
              lambda t, s, e: ClickStatistics(s[0] - 1, t, stderr=e),
              lambda o: [(o.probs, 0), (o.stderr, 1)]),
    "joint click": (2, _probabilities,
                    lambda t, s, e: JointClickStatistics(s[0] - 1, s[1] - 1, t,
                                                         stderr=e),
                    lambda o: [(o.probs, 0), (o.stderr, 1)]),
    "polynomial": (1, _nonnegative, lambda t, s, e: PolynomialSeries(t),
                   lambda o: [(o.coefficients, 0)]),
    "moments": (1, _moments, lambda t, s, e: PiMoments(t, s[0] - 1),
                lambda o: [(o.values, 0)]),
    "joint moments": (2, _moments,
                      lambda t, s, e: JointPiMoments(t, (s[0] - 1, s[1] - 1)),
                      lambda o: [(o.values, 0)]),
    "matrix": (2, _moments,
               lambda t, s, e: MomentMatrix(t, tuple(range(s[0]))),
               lambda o: [(o.entries, 0)]),
    "distribution": (1, _probabilities,
                     lambda t, s, e: PhotonNumberDistribution(t),
                     lambda o: [(o.probs, 0), (o._array, 0)]),
    "joint distribution": (2, _probabilities,
                           lambda t, s, e: JointPhotonDistribution(t),
                           lambda o: [(o.probs, 0)]),
}


@st.composite
def _case(draw):
    """(name, shape, entries, stderr entries), each entry drawn in one of
    its numeric types: a valid table for the constructor `name`."""
    name = draw(st.sampled_from(sorted(_CONSTRUCTORS)))
    axes, numbers = _CONSTRUCTORS[name][:2]
    if name == "matrix":
        n = draw(st.integers(1, 4))
        shape = (n, n)
    else:
        shape = tuple(draw(st.lists(st.integers(2, 5), min_size=axes,
                                    max_size=axes)))
    size = int(np.prod(shape))
    values = draw(numbers(size))
    if name == "matrix":  # mirrored, so the matrix is exactly symmetric
        grid = np.array(values, dtype=object).reshape(shape)
        values = np.triu(grid) + np.triu(grid, 1).T
        values = values.ravel().tolist()
    entries = [draw(st.sampled_from(_forms(x))) for x in values]
    stderr = [draw(st.sampled_from(_forms(x))) for x in draw(_free(size))]
    return name, shape, entries, stderr


def _container(draw, entries, shape):
    """The entries as a tuple, a nested list, or a numpy array of the
    type numpy finds for them or of objects."""
    how = draw(st.sampled_from(["tuple", "list", "array", "objects"]))
    if how == "array":
        return np.array(np.array(entries, dtype=object).reshape(shape).tolist())
    grid = np.empty(len(entries), dtype=object)
    grid[:] = entries
    grid = grid.reshape(shape)
    if how == "objects":
        return grid
    rows = grid.tolist()
    if how == "tuple":
        return tuple(map(tuple, rows)) if len(shape) == 2 else tuple(rows)
    return rows


def _flat(table) -> list:
    return np.asarray(table, dtype=object).ravel().tolist()


class TestOneReader:
    @settings(max_examples=400, deadline=None)
    @given(case=_case(), data=st.data())
    def test_tables_are_stored_as_their_floats(self, case, data):
        name, shape, entries, stderr = case
        make, stored = _CONSTRUCTORS[name][2:]
        table = _container(data.draw, entries, shape)
        errors = _container(data.draw, stderr, shape)
        kept = [np.array(a, copy=True) if isinstance(a, np.ndarray) else None
                for a in (table, errors)]
        given_tables = (table, errors)
        built = make(table, shape, errors)
        for got, source in stored(built):
            want = np.array([float(x) for x in _flat(given_tables[source])])
            assert np.asarray(got).shape == shape
            assert np.asarray(got, dtype=float).ravel().tobytes() == (
                want.tobytes())
            if isinstance(got, tuple):
                assert all(type(x) is float for x in got)
            else:
                assert not got.flags.writeable
        # the caller's arrays keep their numbers and stay writeable, and
        # nothing kept shares their memory
        for given_table, copy in zip(given_tables, kept):
            if copy is None:
                continue
            assert given_table.flags.writeable
            assert given_table.tobytes() == copy.tobytes()
            for got, _ in stored(built):
                assert not (isinstance(got, np.ndarray)
                            and np.may_share_memory(got, given_table))

    @settings(max_examples=300, deadline=None)
    @given(case=_case(), data=st.data(),
           bad=st.sampled_from(["0.5", None, 0.5j, np.complex128(0.5)]))
    def test_entries_that_are_not_real_are_refused(self, case, data, bad):
        name, shape, entries, _ = case
        make = _CONSTRUCTORS[name][2]
        entries[data.draw(st.integers(0, len(entries) - 1))] = bad
        table = _container(data.draw, entries, shape)
        with pytest.raises(TypeError, match="must be real number"):
            make(table, shape, None)

    @settings(max_examples=200, deadline=None)
    @given(case=_case(), data=st.data())
    def test_another_shape_is_refused(self, case, data):
        name, shape, entries, _ = case
        make = _CONSTRUCTORS[name][2]
        # one axis more for a one-axis table, one less for a two-axis one
        other = (1,) + shape if len(shape) == 1 else (len(entries),)
        table = _container(data.draw, entries, other)
        with pytest.raises(ValueError, match="shape|2-D"):
            make(table, shape, None)

    @pytest.mark.parametrize("make", [
        lambda t: JointClickStatistics(1, 1, t).probs,
        lambda t: JointClickStatistics(1, 1, np.eye(2) / 2, stderr=t).stderr,
        lambda t: JointPiMoments(t, (1, 1)).values,
        lambda t: MomentMatrix(t, (0, 1)).entries,
        lambda t: JointPhotonDistribution(t).probs,
    ], ids=["joint click", "stderr", "joint moments", "matrix",
            "joint distribution"])
    @pytest.mark.parametrize("view", [
        lambda a: a, lambda a: a[:], memoryview,
        lambda a: a.view(np.recarray)],
        ids=["array", "view", "memoryview", "subclass"])
    def test_kept_tables_are_their_own(self, make, view):
        # whatever shares the caller's memory is copied once: changing the
        # caller's array afterwards changes nothing that was kept
        base = np.array([[1.0, 0.0], [0.0, 0.0]])
        kept = make(view(base))
        base[0, 1] = base[1, 0] = 0.25
        assert kept[0, 1] == 0.0 and not kept.flags.writeable
        assert type(kept) is np.ndarray
