"""The rules that make a table valid, through every container that checks
one: the two photon-number tables, the coherent superposition, the two
click tables and the three moment containers.

`series` holds the rules: one tolerance, one check that a total is one
within it plus a container's slack (`_check_total`), one check that a
photon table's tail bound is a finite number >= 0 (`_check_tail`, after
the table's signs and before its total), and one check that a caller's
`exact` rounds to the floats given (`_check_exact`).  Each fault meets
one exception type and one message form wherever it occurs.  A click
table's negative entry meets its own rule, the clamp: below -1e-12 it is
a PrecisionLoss.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickstats import (
    ClickStatistics,
    CoherentSuperposition,
    JointClickStatistics,
    JointPhotonDistribution,
    JointPiMoments,
    MomentMatrix,
    PhotonNumberDistribution,
    PiMoments,
)
from clickstats.errors import NormalizationViolation, PrecisionLoss
from clickstats.series import _NORM_TOL

_UNIT = 2 ** 20

# name: (least and largest length of an axis, number of axes, the container
# on a table, a tail, an exact table and a slack, and what the total check
# names); tables of probabilities sum to one, moments start at one
_CONTAINERS = {
    "photon": (1, 6, 1, lambda t, tail, exact, slack:
               PhotonNumberDistribution(tuple(t.tolist()), tail),
               "photon-number distribution plus tail"),
    "joint photon": (1, 4, 2, lambda t, tail, exact, slack:
                     JointPhotonDistribution(t, tail),
                     "joint distribution plus tail"),
    "superposition": (1, 1, 1, lambda t, tail, exact, slack:
                      CoherentSuperposition(((math.sqrt(t[0]), 0.5),)),
                      "superposition norm"),
    "click": (2, 6, 1, lambda t, tail, exact, slack: ClickStatistics(
        t.size - 1, tuple(t.tolist()), exact=exact, norm_slack=slack),
        "total of click probabilities"),
    "joint click": (2, 4, 2, lambda t, tail, exact, slack: JointClickStatistics(
        t.shape[0] - 1, t.shape[1] - 1, t, exact=exact, norm_slack=slack),
        "total of joint click probabilities"),
    "moments": (1, 6, 1, lambda t, tail, exact, slack: PiMoments(
        tuple(t.tolist()), t.size - 1, exact=exact, norm_slack=slack),
        "zeroth moment"),
    "joint moments": (1, 4, 2, lambda t, tail, exact, slack: JointPiMoments(
        t, (t.shape[0] - 1, t.shape[1] - 1), exact=exact, norm_slack=slack),
        "(0,0) moment"),
    "matrix": (1, 4, 0, lambda t, tail, exact, slack: MomentMatrix(
        t, tuple(range(len(t))), exact=exact, norm_slack=slack),
        "top-left entry"),
}
_PHOTON = ("photon", "joint photon")
_CLICK = ("click", "joint click")
_STATES = _PHOTON + ("superposition",)
_MOMENTS = ("moments", "joint moments", "matrix")
# the field each container names when its `exact` is refused
_EXACT = {"click": "probs", "joint click": "probs", "moments": "values",
          "joint moments": "values", "matrix": "entries"}


@st.composite
def _valid(draw, name):
    """(table, index of the entry that carries its total) of a container:
    probabilities, multiples of 2^-20 that sum to one, with the largest
    entry; moments, multiples of 2^-20 in [-4, 4] from a first one of one,
    a matrix of them symmetric."""
    lo, hi, axes = _CONTAINERS[name][:3]
    shape = tuple(draw(st.integers(lo, hi)) for _ in range(axes or 1))
    if axes == 0:
        shape *= 2
    size = math.prod(shape)
    if name in _MOMENTS:
        flat = [draw(st.integers(-4 * _UNIT, 4 * _UNIT)) / _UNIT
                for _ in range(size)]
        table = np.array(flat).reshape(shape)
        if axes == 0:
            table = np.triu(table) + np.triu(table, 1).T
        table[(0,) * len(shape)] = 1.0
        return table, (0,) * len(shape)
    cuts = sorted(draw(st.lists(st.integers(0, _UNIT), min_size=size - 1,
                                max_size=size - 1)))
    table = np.array([(b - a) / _UNIT for a, b in zip([0] + cuts, cuts + [_UNIT])])
    table = table.reshape(shape)
    return table, np.unravel_index(int(table.argmax()), shape)


def _fractions(table: np.ndarray) -> tuple:
    """The table's entries as Fractions, in nested tuples."""
    q = np.array([Fraction(x) for x in table.ravel().tolist()], dtype=object)
    q = q.reshape(table.shape).tolist()
    return tuple(map(tuple, q)) if table.ndim == 2 else tuple(q)


_CASES = ([("total", name) for name in _CONTAINERS]
          + [("negative", name) for name in _PHOTON + _CLICK]
          + [("tail", name) for name in _PHOTON]
          + [("exact", name) for name in _EXACT])


@pytest.mark.parametrize("fault,name", _CASES,
                         ids=[f"{f}-{n}" for f, n in _CASES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_each_fault_meets_one_rule(fault, name, data):
    table, at = data.draw(_valid(name))
    make, what = _CONTAINERS[name][3:]
    slack = (0.0 if name in _STATES else
             data.draw(st.sampled_from([0.0, 1e-10, 1e-6])))
    tail, exact = 0.0, None
    if fault == "total":
        # off one by more than the tolerance and the slack, in either way
        size = data.draw(st.floats(2.0, 1e6)) * (_NORM_TOL + slack)
        table[at] += data.draw(st.sampled_from([-1, 1])) * min(size, 0.01)
        with pytest.raises(NormalizationViolation) as err:
            make(table, tail, exact, slack)
        form = re.fullmatch(
            rf"{re.escape(what)} is (\S+), not 1 "
            rf"\(allowed slack {re.escape(f'{_NORM_TOL + slack:.3e}')}\)",
            str(err.value))
        assert form, str(err.value)
        assert abs(float(form[1]) - 1.0) > _NORM_TOL + slack
        return
    if fault == "negative":
        flat = table.reshape(-1)
        flat[data.draw(st.integers(0, flat.size - 1))] = value = -data.draw(
            st.floats(5e-324 if name in _PHOTON else 2e-12, 1.0))
        if name in _CLICK:
            with pytest.raises(PrecisionLoss) as err:
                make(table, tail, exact, slack)
            assert str(err.value) == (f"{name} probability {value!r} below "
                                      "-1e-12 or beyond float range")
            return
        message = f"negative probability in {what.removesuffix(' plus tail')}"
    elif fault == "tail":
        tail = data.draw(st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf, -0.5, -5e-324]),
            st.floats(max_value=-5e-324)))
        message = (f"tail bound of the {what.removesuffix(' plus tail')} is "
                   f"{tail!r}, not a finite number >= 0")
    else:
        # one entry, and its mirror in a matrix, off by 2^-40: thousands of
        # units in the last place of any entry of at most 4; a probability
        # table keeps its exact total, moved back on another entry
        q = np.array(_fractions(table), dtype=object)
        moved = {data.draw(st.integers(0, table.size - 1))}
        q.reshape(-1)[min(moved)] += Fraction(1, 2 ** 40)
        if name == "matrix":
            i, j = np.unravel_index(min(moved), table.shape)
            q[j, i] = q[i, j]
            moved.add(int(j * table.shape[0] + i))
        elif name not in _MOMENTS:
            other = data.draw(st.integers(0, table.size - 2))
            other += other >= min(moved)
            q.reshape(-1)[other] -= Fraction(1, 2 ** 40)
            moved.add(other)
        first = min(moved)
        exact = tuple(map(tuple, q.tolist())) if q.ndim == 2 else tuple(q)
        index = [int(k) for k in np.unravel_index(first, table.shape)]
        message = (f"{_EXACT[name]}{index} is {float(table.ravel()[first])!r}, "
                   f"but exact rounds to {float(q.ravel()[first])!r}")
    with pytest.raises(ValueError) as err:
        make(table, tail, exact, slack)
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_an_exact_the_floats_round_from_is_taken():
    # the same tables as the faults above, each with its own Fractions
    third = Fraction(1, 3)
    PiMoments((1.0, 1 / 3), 1, exact=(1, third))
    JointPiMoments(np.array([[1.0, 0.5], [0.25, 1 / 3]]), (1, 1),
                   exact=((1, Fraction(1, 2)), (Fraction(1, 4), third)))
    MomentMatrix([[1.0, 1 / 3], [1 / 3, 0.5]], (0, 1),
                 exact=((1, third), (third, Fraction(1, 2))))


class TestDriftsThatClosed:
    """Inputs one container refused and another took, each now refused with
    the same exception as its counterpart."""

    def test_joint_table_with_a_negative_tail(self):
        # was taken, and failed only in joint_click_statistics with
        # "allowed slack -5.000e-01"
        with pytest.raises(ValueError, match="^tail bound of the joint "
                           "distribution is -0.5, not a finite number >= 0$"):
            JointPhotonDistribution(np.array([[1.0, 0.25], [0.25, 0.0]]),
                                    tail_bound=-0.5)

    def test_moments_whose_exact_the_floats_do_not_round_from(self):
        # were taken: the matrix's leading minors read (1.0, -80.5) beside
        # a smallest eigenvalue of +0.19
        with pytest.raises(ValueError, match=re.escape(
                "entries[0, 1] is 0.5, but exact rounds to 9.0")):
            MomentMatrix([[1, .5], [.5, .5]], (0, 1),
                         exact=((1, 9), (9, Fraction(1, 2))))
        with pytest.raises(ValueError, match=re.escape(
                "values[1] is 0.5, but exact rounds to 7.0")):
            PiMoments((1.0, 0.5, 0.3), 2, exact=(1, 7, 0))

    @pytest.mark.parametrize("make", [
        lambda: PhotonNumberDistribution((0.9, -0.2)),
        lambda: JointPhotonDistribution(np.array([[0.9, -0.2], [0.0, 0.0]])),
    ], ids=["photon", "joint"])
    def test_negative_and_off_its_total(self, make):
        # the joint table checked its total first, a NormalizationViolation
        with pytest.raises(ValueError, match="^negative probability in ") as err:
            make()
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("make", [
        lambda tail: PhotonNumberDistribution((1.0,), tail),
        lambda tail: JointPhotonDistribution(np.array([[1.0]]), tail),
    ], ids=["photon", "joint"])
    def test_nan_tail(self, make):
        # was a NormalizationViolation from the total
        with pytest.raises(ValueError, match="^tail bound of the ") as err:
            make(math.nan)
        assert type(err.value) is ValueError
