"""Reference values computed apart from the program under test.

Every reference starts from the no-click expectations

    E[s] = <:exp(-s f(nhat/N)):>,   s = 0..N

(or E[s1][s2] for two banks), evaluated in closed form or as finite sums
for each (state family, response) pair the workloads use:

* coherent table, any response:  E[s] = g_s(mu/N), so the clicks are binomial
* odd coherent:  E[s] = (g_s(mu/N) - g_s(-mu/N) e^{-2 mu}) / (1 - e^{-2 mu})
* Fock |n>:  E[s] = n! [t^n] e^t g_s(t/N), a finite sum of series coefficients
* thermal / spats, linear or affine:  1/(1 + c nbar) and (1 - c)/(1 + c nbar)^2
* thermal / spats, quadratic polynomial:  erfc closed forms
* thermal, n-photon absorption:  a finite sum of p!/a^{p+1} terms
* two-mode squeezed vacuum, linear or affine:
  e^{-s1 nu1 - s2 nu2} (1 - r)/(1 - r (1 - c1)(1 - c2))

with g_s(x) = exp(-s f(x)).  Click probabilities, normally ordered moments,
Hankel and two-bank moment matrices, their leading minors, the smallest
eigenvalue, Q_B and the cross-correlation minor all follow from E by code in
this file.  Nothing here imports the program, and nothing is read from a
stored copy of its output.

All arithmetic runs in a private mpmath context at 256 bits, so the
program's own use of the global mpmath context cannot leak into it.

`scale` multiplies the intensity argument of the response (f(scale x)).  It
is 1 for the checks; the self-test sets it to 1 + 1e-9 to show that the
checks notice a perturbed oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

MP = mpmath.MPContext()
MP.prec = 256
IV = mpmath.ctx_iv.MPIntervalContext()
IV.prec = 256

THRESHOLD = 1e-9  # the program's default witness threshold


# --- response functions ---------------------------------------------------------

def _poly_coeffs(resp):
    """Coefficients of f as a polynomial, or None for n-photon absorption."""
    kind = resp["kind"]
    if kind == "linear":
        return [0.0, resp["eta"]]
    if kind == "affine":
        return [resp["nu"], resp["eta"]]
    if kind == "poly":
        return list(resp["coefficients"])
    if kind == "power":
        return [0.0] * resp["n0"] + [1.0]
    return None


def _nabs_base(n0, x):
    """B(x) = sum_{j<n0} x^j/j!, so that exp(-f(x)) = exp(-x) B(x)."""
    return MP.fsum(x ** j / MP.factorial(j) for j in range(n0))


def g(resp, s, x):
    """g_s(x) = exp(-s f(x)) for a real or negative intensity x."""
    x = MP.mpf(x)
    coeffs = _poly_coeffs(resp)
    if coeffs is not None:
        return MP.exp(-s * MP.fsum(MP.mpf(c) * x ** j for j, c in enumerate(coeffs)))
    return MP.exp(-s * x) * _nabs_base(resp["n0"], x) ** s


def _series_mul(a, b, order):
    out = [MP.zero] * (order + 1)
    for i, ai in enumerate(a[:order + 1]):
        if ai:
            for j, bj in enumerate(b[:order + 1 - i]):
                out[i + j] += ai * bj
    return out


def _series_exp(q, order):
    """Taylor coefficients of exp(q(x)) for a polynomial q with q(0) = q[0]."""
    h = [MP.exp(q[0])] + [MP.zero] * order
    for k in range(1, order + 1):
        h[k] = MP.fsum(j * q[j] * h[k - j]
                       for j in range(1, min(k, len(q) - 1) + 1)) / k
    return h


def g_series(resp, s, order, scale):
    """Taylor coefficients in x of g_s(scale * x) up to x^order."""
    lam = MP.mpf(scale)
    coeffs = _poly_coeffs(resp)
    if coeffs is not None:
        q = [-s * MP.mpf(c) * lam ** j for j, c in enumerate(coeffs)]
        return _series_exp(q, order)
    n0 = resp["n0"]
    base = [lam ** j / MP.factorial(j) for j in range(n0)]
    power = [MP.one] + [MP.zero] * order
    for _ in range(s):
        power = _series_mul(power, base, order)
    return _series_mul(_series_exp([MP.zero, -s * lam], order), power, order)


# --- no-click expectations ------------------------------------------------------

def _erfc_integrals(a, b):
    """I0 = int_0^inf exp(-a x - b x^2) dx and I1 = int_0^inf x exp(...) dx."""
    z = a / (2 * MP.sqrt(b))
    i0 = MP.sqrt(MP.pi / (4 * b)) * MP.exp(z * z) * MP.erfc(z)
    return i0, (1 - a * i0) / (2 * b)


def _thermal_like(kind, nb, resp, s, N, scale):
    """E[s] for thermal (weight e^{-x/nb}/nb) or spats
    (weight ((1+nb) x - nb) e^{-x/nb}/nb^3) intensity distributions."""
    lam = MP.mpf(scale) / N
    rk = resp["kind"]
    if s == 0:
        return MP.one
    if rk in ("linear", "affine"):
        c = s * MP.mpf(resp["eta"]) * lam
        dark = MP.exp(-s * MP.mpf(resp.get("nu", 0.0)))
        if kind == "thermal":
            return dark / (1 + c * nb)
        return dark * (1 - c) / (1 + c * nb) ** 2
    if rk == "poly" and len(resp["coefficients"]) == 3:
        c0, c1, c2 = (MP.mpf(c) for c in resp["coefficients"])
        a = 1 / nb + s * c1 * lam
        b = s * c2 * lam ** 2
        i0, i1 = _erfc_integrals(a, b)
        if kind == "thermal":
            return MP.exp(-s * c0) * i0 / nb
        return MP.exp(-s * c0) * ((1 + nb) * i1 - nb * i0) / nb ** 3
    if rk == "nabs" and kind == "thermal":
        # exp(-s f(lam x)) = exp(-s lam x) B(lam x)^s, a polynomial times an
        # exponential, so the integral is a finite sum of p!/a^{p+1}
        n0 = resp["n0"]
        base = [lam ** j / MP.factorial(j) for j in range(n0)]
        power = [MP.one]
        for _ in range(s):
            power = _series_mul(power, base, len(power) + n0 - 2)
        a = 1 / nb + s * lam
        return MP.fsum(bp * MP.factorial(p) / a ** (p + 1)
                       for p, bp in enumerate(power)) / nb
    raise ValueError(f"no reference for {rk} on {kind}")


def no_click(state, det, scale=1.0):
    """E[0..N] for a single-mode state descriptor and a detector descriptor."""
    N = det["N"]
    resp = det["response"]
    kind = state["kind"]
    if kind == "coherent":
        x = MP.mpf(state["mean_photons"]) * scale / N
        return [g(resp, s, x) for s in range(N + 1)]
    if kind == "odd_coherent":
        mu = MP.mpf(state["alpha"]) ** 2
        x = mu * scale / N
        w = MP.exp(-2 * mu)
        return [(g(resp, s, x) - g(resp, s, -x) * w) / (1 - w)
                for s in range(N + 1)]
    if kind == "fock":
        n = state["n"]
        out = []
        for s in range(N + 1):
            h = g_series(resp, s, n, MP.mpf(scale) / N)
            # <n| :h(nhat): |n> = sum_k h_k n!/(n-k)! = n! [t^n] e^t h(t)
            out.append(MP.fsum(h[k] * MP.factorial(n) / MP.factorial(n - k)
                               for k in range(n + 1)))
        return out
    if kind in ("thermal", "spats"):
        nb = MP.mpf(state["nbar"])
        return [_thermal_like(kind, nb, resp, s, N, scale) for s in range(N + 1)]
    raise ValueError(f"no reference for state kind {kind!r}")


def joint_no_click(state, det1, det2, scale=1.0):
    """E[s1][s2] for two-mode squeezed vacuum on two linear or affine
    banks: the dark counts nu only add a factor exp(-s nu) per bank."""
    if state["kind"] != "tmsv":
        raise ValueError("joint references cover two-mode squeezed vacuum only")
    r = MP.mpf(state["xi"]) ** 2
    cs = []
    for det in (det1, det2):
        resp = det["response"]
        if resp["kind"] not in ("linear", "affine"):
            raise ValueError("joint references cover linear and affine banks")
        eta = MP.mpf(resp["eta"]) * scale
        nu = MP.mpf(resp.get("nu", 0.0))
        cs.append([(s * eta / det["N"], MP.exp(-s * nu))
                   for s in range(det["N"] + 1)])
    return [[d1 * d2 * (1 - r) / (1 - r * (1 - c1) * (1 - c2))
             for c2, d2 in cs[1]] for c1, d1 in cs[0]]


# --- statistics, moments and minors ---------------------------------------------

def _diff_weights(m):
    """Coefficients of (1 - y)^m: moment m from no-click values E[0..m]."""
    return [math.comb(m, j) * (-1) ** j for j in range(m + 1)]


def clicks_from_E(E):
    """c_k = C(N,k) sum_j C(k,j) (-1)^j E[N-k+j]."""
    N = len(E) - 1
    return [math.comb(N, k) * MP.fsum(w * E[N - k + j]
                                      for j, w in enumerate(_diff_weights(k)))
            for k in range(N + 1)]


def joint_clicks_from_E(E):
    N1, N2 = len(E) - 1, len(E[0]) - 1
    return [[math.comb(N1, k1) * math.comb(N2, k2) * MP.fsum(
        w1 * w2 * E[N1 - k1 + j1][N2 - k2 + j2]
        for j1, w1 in enumerate(_diff_weights(k1))
        for j2, w2 in enumerate(_diff_weights(k2)))
        for k2 in range(N2 + 1)] for k1 in range(N1 + 1)]


def moments_from_E(E):
    """<:pi^m:> = <:(1 - exp(-f))^m:> = sum_j C(m,j) (-1)^j E[j]."""
    return [MP.fsum(w * E[j] for j, w in enumerate(_diff_weights(m)))
            for m in range(len(E))]


def joint_moments_from_E(E):
    N1, N2 = len(E) - 1, len(E[0]) - 1
    return [[MP.fsum(w1 * w2 * E[j1][j2]
                     for j1, w1 in enumerate(_diff_weights(m1))
                     for j2, w2 in enumerate(_diff_weights(m2)))
             for m2 in range(N2 + 1)] for m1 in range(N1 + 1)]


def moments_from_clicks(c):
    """<:pi^m:> = sum_k k!/(k-m)! c_k / (N!/(N-m)!), exactly for rationals."""
    N = len(c) - 1
    return [sum(math.perm(k, m) * c[k] for k in range(m, N + 1))
            / math.perm(N, m) for m in range(N + 1)]


def joint_moments_from_clicks(c):
    N1, N2 = len(c) - 1, len(c[0]) - 1
    return [[sum(math.perm(k1, m1) * math.perm(k2, m2) * c[k1][k2]
                 for k1 in range(m1, N1 + 1) for k2 in range(m2, N2 + 1))
             / (math.perm(N1, m1) * math.perm(N2, m2))
             for m2 in range(N2 + 1)] for m1 in range(N1 + 1)]


def hankel(mom):
    d = (len(mom) - 1) // 2 + 1
    return [[mom[i + j] for j in range(d)] for i in range(d)]


def graded_basis(b1, b2):
    """Exponent pairs by total degree, larger first-mode exponent first."""
    return [(m1, deg - m1) for deg in range(b1 + b2 + 1)
            for m1 in range(min(deg, b1), -1, -1) if deg - m1 <= b2]


def joint_matrix(mom):
    N1, N2 = len(mom) - 1, len(mom[0]) - 1
    basis = graded_basis(N1 // 2, N2 // 2)
    return [[mom[a1 + b1][a2 + b2] for b1, b2 in basis] for a1, a2 in basis]


def _mpf(x):
    if isinstance(x, Fraction):
        return MP.mpf(x.numerator) / x.denominator
    return MP.mpf(x)


def _det(block):
    """Determinant by elimination with partial pivoting; exact on Fractions."""
    a = [list(r) for r in block]
    n = len(a)
    det = 1
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return 0 * det
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col + 1, n):
                a[r][c] -= f * a[col][c]
    return det


def minors(rows):
    """Leading principal minors, as mpf."""
    return [_mpf(_det([r[:k] for r in rows[:k]]))
            for k in range(1, len(rows) + 1)]


def min_eig(rows):
    return min(MP.eigsy(MP.matrix([[_mpf(x) for x in r] for r in rows]),
                        eigvals_only=True))


def qb(c):
    N = len(c) - 1
    mean = MP.fsum(k * ck for k, ck in enumerate(c))
    second = MP.fsum(k * k * ck for k, ck in enumerate(c))
    denom = mean * (N - mean)
    if denom <= MP.mpf(10) ** -30:
        return None
    return N * (second - mean ** 2) / denom - 1


def cross_minor(mom):
    v1 = mom[2][0] - mom[1][0] ** 2
    v2 = mom[0][2] - mom[0][1] ** 2
    cov = mom[1][1] - mom[1][0] * mom[0][1]
    return v1 * v2 - cov ** 2


def minor_bounds(rows, entry_err):
    """Bound on |det(A + D) - det(A)| for each leading block, when every
    entry of D is at most entry_err in magnitude.

    det is multilinear in the rows, so Hadamard's inequality applied to each
    term of the expansion gives prod(|a_r| + |d_r|) - prod(|a_r|).
    """
    out = []
    for k in range(1, len(rows) + 1):
        e = MP.mpf(entry_err) * MP.sqrt(k)
        norms = [MP.sqrt(MP.fsum(_mpf(x) ** 2 for x in r[:k])) for r in rows[:k]]
        hi = MP.one
        lo = MP.one
        for nr in norms:
            hi *= nr + e
            lo *= nr
        out.append(hi - lo)
    return out


# --- references and checks -----------------------------------------------------

class Reference:
    """Everything a check compares: click probabilities, minors, minimum
    eigenvalue, Q_B or cross minor, and the verdict they imply."""

    def __init__(self, probs, matrix, qb_value=None, cross=None):
        self.probs = probs
        self.matrix = matrix
        self.minors = minors(matrix)
        self.min_eig = min_eig(matrix)
        self.qb = qb_value
        self.cross = cross
        crit = list(self.minors[1:]) + [self.min_eig]
        crit += [v for v in (qb_value, cross) if v is not None]
        self.min_criterion = min(crit)

    def verdict(self):
        return ("nonclassical" if self.min_criterion < -THRESHOLD
                else "consistent-with-classical")


def single_reference(state, det, scale=1.0):
    E = no_click(state, det, scale)
    c = clicks_from_E(E)
    return Reference(c, hankel(moments_from_E(E)), qb_value=qb(c))


def joint_reference(state, det1, det2, scale=1.0):
    E = joint_no_click(state, det1, det2, scale)
    mom = joint_moments_from_E(E)
    return Reference(joint_clicks_from_E(E), joint_matrix(mom),
                     cross=cross_minor(mom))


def empirical_reference(counts):
    """Reference for a histogram, in exact rational arithmetic."""
    if isinstance(counts[0], list):
        total = sum(map(sum, counts))
        c = [[Fraction(x, total) for x in r] for r in counts]
        mom = joint_moments_from_clicks(c)
        return Reference(c, joint_matrix(mom), cross=_mpf(cross_minor(mom)))
    total = sum(counts)
    c = [Fraction(x, total) for x in counts]
    return Reference(c, hankel(moments_from_clicks(c)),
                     qb_value=qb([_mpf(x) for x in c]))


def _flat(x):
    if isinstance(x, (list, tuple)) and x and isinstance(x[0], (list, tuple)):
        return [v for row in x for v in row]
    if hasattr(x, "ravel"):
        return [float(v) for v in x.ravel()]
    return list(x)


def _prob_errs(ref, prob_err):
    """Allowed error of each click probability: prob_err, plus 1e-15
    relative for the float rounding of formal statistics far above one."""
    return [prob_err + abs(_mpf(v)) * MP.mpf(1e-15) for v in _flat(ref.probs)]


def _widened(values, errs):
    """Intervals [v - e, v + e] around reference values."""
    out = []
    for v, e in zip(values, errs):
        e = IV.mpf(e)
        out.append(IV.mpf(_mpf(v)) + IV.mpf([-e.b, e.b]))
    return out


def check(ref, probs, report, prob_err, physical=True):
    """Compare the program's click probabilities and witness report with a
    reference.  prob_err bounds the error the program may make in each click
    probability (the state's truncation tail plus rounding).  Returns a list
    of failure messages, empty when everything agrees."""
    return (check_probs(ref, probs, prob_err, physical)
            + check_report(ref, report, prob_err))


def check_probs(ref, probs, prob_err, physical=True):
    """Click probabilities alone: each within its allowed error, their sum
    within the summed errors of one, none negative for a physical response."""
    fails = []
    got = _flat(probs)
    want = [_mpf(v) for v in _flat(ref.probs)]
    if len(got) != len(want):
        return [f"{len(got)} click probabilities, expected {len(want)}"]
    errs = _prob_errs(ref, prob_err)
    for i, (a, b, e) in enumerate(zip(got, want, errs)):
        if not abs(MP.mpf(a) - b) <= e:
            fails.append(f"click probability {i}: {a!r} vs reference "
                         f"{float(b)!r} (allowed {float(e):.1e})")
    total = math.fsum(got)
    if not abs(total - 1.0) <= sum(errs) + 1e-12:
        fails.append(f"probabilities sum to {total!r}")
    if physical and not min(got) >= 0.0:
        fails.append(f"negative probability {min(got)!r} from a physical response")
    return fails


def _moment_err(errs):
    # every moment is a combination of the c_k with weights in [0, 1]
    return sum(errs) + 1e-15


def check_minors(ref, got, prob_err):
    """Leading minors, each within a rigorous bound on how far it can move
    when the click probabilities move by their allowed errors."""
    mom_err = _moment_err(_prob_errs(ref, prob_err))
    if len(got) != len(ref.minors):
        return [f"{len(got)} minors, expected {len(ref.minors)}"]
    fails = []
    bounds = minor_bounds(ref.matrix, mom_err)
    for k, (a, b, tol) in enumerate(zip(got, ref.minors, bounds), start=1):
        tol = tol + abs(b) * 1e-15 + MP.mpf(10) ** -300
        if not abs(MP.mpf(a) - b) <= tol:
            fails.append(f"{k}x{k} minor {a!r} vs reference {float(b)!r} "
                         f"(allowed {float(tol):.1e})")
    return fails


def check_report(ref, report, prob_err, verdict=True):
    """Compare a witness report with a reference whose click probabilities
    the report's inputs match to prob_err each (see _prob_errs)."""
    errs = _prob_errs(ref, prob_err)
    mom_err = _moment_err(errs)
    fails = check_minors(ref, report.leading_minors, prob_err)
    if len(report.leading_minors) != len(ref.minors):
        return fails
    dim = len(ref.matrix)
    eig_tol = dim * mom_err + 1e-13
    if not abs(MP.mpf(report.min_eigenvalue) - ref.min_eig) <= eig_tol:
        fails.append(f"min eigenvalue {report.min_eigenvalue!r} vs reference "
                     f"{float(ref.min_eig)!r}")
    # Q_B and the cross minor: evaluate the formulas on intervals around the
    # reference probabilities, one interval of width 2 prob_err each
    if ref.qb is not None:
        c = _widened(_flat(ref.probs), errs)
        N = len(c) - 1
        mean = sum(k * ck for k, ck in enumerate(c))
        second = sum(k * k * ck for k, ck in enumerate(c))
        denom = mean * (N - mean)
        if report.qb is None:
            fails.append("Q_B missing")
        elif float(denom.a) > 0:
            span = N * (second - mean ** 2) / denom - 1
            if not float(span.a) - 1e-12 <= report.qb <= float(span.b) + 1e-12:
                fails.append(f"Q_B {report.qb!r} outside reference interval "
                             f"[{float(span.a)!r}, {float(span.b)!r}]")
    if ref.cross is not None:
        width = len(ref.probs[0])
        flat = _widened(_flat(ref.probs), errs)
        c = [flat[i:i + width] for i in range(0, len(flat), width)]
        mom = joint_moments_from_clicks(c)
        span = cross_minor(mom)
        if report.cross_minor is None or not (
                float(span.a) - 1e-15 <= report.cross_minor
                <= float(span.b) + 1e-15):
            fails.append(f"cross minor {report.cross_minor!r} outside reference "
                         f"interval [{float(span.a)!r}, {float(span.b)!r}]")
    # the verdict is only pinned down when the deciding criterion sits
    # clear of the threshold by more than the comparison tolerance
    if verdict and abs(ref.min_criterion + THRESHOLD) > 1e3 * mom_err + 1e-12:
        if report.verdict != ref.verdict():
            fails.append(f"verdict {report.verdict!r}, expected {ref.verdict()!r}")
    return fails


def goodness_of_fit(counts, probs):
    """Pearson chi-square test of a histogram against exact probabilities.

    Outcomes expected fewer than five times are pooled into one bin; an
    outcome of probability zero that was drawn fails outright.  Returns the
    p-value, or 0.0 for an impossible draw.
    """
    n = sum(counts)
    pooled_o, pooled_e = 0, MP.zero
    chi2 = MP.zero
    bins = 0
    for o, p in zip(counts, probs):
        e = n * MP.mpf(p)
        if e < 5:
            pooled_o += o
            pooled_e += e
        else:
            chi2 += (o - e) ** 2 / e
            bins += 1
    if pooled_e > 0:
        if pooled_e < MP.mpf(10) ** -20:
            if pooled_o:
                return 0.0
        else:
            chi2 += (pooled_o - pooled_e) ** 2 / pooled_e
            bins += 1
    elif pooled_o:
        return 0.0
    dof = bins - 1
    if dof < 1:
        return 1.0
    return float(MP.gammainc(MP.mpf(dof) / 2, chi2 / 2, MP.inf, regularized=True))
