"""The three workloads: inputs made from the seed, set-up, operations, checks.

A workload hands out rounds.  Every round is the same list of operation
slots, so a run attempts whole rounds and its share of failed operations
does not depend on how many rounds fit in the time.  An operation's `run`
is the timed part; `check` compares its outputs with `oracle` and returns
failure messages.  Inputs reach the program only as descriptors and the
objects built from them.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

import clickstats as cs
import oracle

# outcome probabilities the bootstrap's goodness-of-fit test may reject at
# when the program is right; see README
GOF_ALPHA = 1e-9


class Op:
    """One timed operation.

    run() -> output; check(output) -> list of failures; single(output) ->
    the (state, detector) of its single-bank click statistics, or None.
    first_in_run says whether run() itself computes those statistics.
    """

    __slots__ = ("slot", "run", "check", "single", "first_in_run")

    def __init__(self, slot, run, check, single=None, first_in_run=True):
        self.slot = slot
        self.run = run
        self.check = check
        self.single = single
        self.first_in_run = first_in_run


def _prob_err(state):
    # truncated tables miss at most their tail mass in each c_k; 1e-13
    # covers float rounding and the program's certified kernel error
    return getattr(state, "tail_bound", 0.0) + 1e-13


def _physical(ddescs):
    """Linear, affine and n-photon-absorption responses give probabilities;
    poly and power statistics are formal and may be signed."""
    return all(d["response"]["kind"] in ("linear", "affine", "nabs")
               for d in ddescs)


def _fingerprint(out):
    """Everything an operation returned, as bytes and numbers."""
    _, stats, extra = out
    fp = [np.asarray(stats.probs, dtype=float).tobytes()]
    if hasattr(extra, "leading_minors"):
        fp += [extra.leading_minors, extra.min_eigenvalue, extra.qb,
               extra.cross_minor, extra.verdict]
    elif extra is not None:
        fp.append(tuple(extra))
    return tuple(fp)


class _Checked:
    """Full check the first time an operation runs; later rounds of the same
    operation must reproduce the checked output bit for bit."""

    def __init__(self):
        self.seen = {}

    def __call__(self, key, fingerprint, full_check):
        if self.seen.get(key) == fingerprint:
            return []
        fails = full_check()
        if not fails:
            self.seen[key] = fingerprint
        return fails


def _reference(sdesc, ddescs):
    if len(ddescs) == 2:
        return oracle.joint_reference(sdesc, *ddescs)
    return oracle.single_reference(sdesc, ddescs[0])


def _linear(N, eta):
    return {"N": N, "response": {"kind": "linear", "eta": eta}}


# --- sweep ------------------------------------------------------------------------

# Every sweep runs the command line's default grid at one point in THIN, as
# `figure fig2 --grid nbar=0:3:61` would.
THIN = 5
# detectors of `figure fig2` and of the README's `witness --grid` example
_FIG2_DET = _linear(8, 0.9)
# detector of both banks in `figure fig3`
_FIG3_DET = _linear(4, 0.8)
# `figure fig5`: a coherent state of mean photon number 4 on N=16, one table
# per response
_FIG5_RESPONSES = (
    ("linear", {"kind": "linear", "eta": 1.0}),
    ("affine", {"kind": "affine", "eta": 1.0, "nu": 2.0}),
    ("poly", {"kind": "poly", "coefficients": [0.0, 1.0, 0.25]}),
    ("nabs2", {"kind": "nabs", "n0": 2}),
)


class Sweep:
    """The command line's sweeps, warm: one round is `figure fig2`,
    `figure fig3`, `figure fig5` and `witness --grid` on a thermal state,
    each on its default grid thinned to one point in THIN."""

    name = "sweep"
    # p99 and p98 fall between the two dearest fig3 points of a round and
    # moved three times more across one run's rounds than p95 (see README)
    tail_pct = 95
    rss_rounds = 2

    def __init__(self, seed, workdir):
        rng = random.Random(f"sweep:{seed}")
        self.workdir = workdir
        # the seed shifts every grid point by less than a thousandth of the
        # grid step: the inputs differ between seeds, their cost does not
        shift = rng.uniform(0.0, 1e-3)

        def grid(lo, hi, n):
            """n points from lo to hi, ends included, as NAME=lo:hi:n."""
            step = (hi - lo) / (n - 1)
            return [lo + (i + shift) * step for i in range(n)]

        n2 = 300 // THIN + 1        # fig2 and witness --grid: 0:3:301
        n3 = 200 // THIN + 1        # fig3: 0:1:201 without its ends
        self.points = (
            [("fig2", {"kind": "spats", "nbar": x}, [_FIG2_DET])
             for x in grid(0.0, 3.0, n2)]
            + [("fig3", {"kind": "tmsv", "xi": math.sqrt(x)},
                [_FIG3_DET, _FIG3_DET]) for x in grid(0.0, 1.0, n3)[1:-1]]
            + [(f"fig5.{name}", {"kind": "coherent",
                                 "mean_photons": 4.0 + shift},
                [{"N": 16, "response": resp}])
               for name, resp in _FIG5_RESPONSES]
            + [("grid", {"kind": "thermal", "nbar": x}, [_FIG2_DET])
               for x in grid(0.0, 3.0, n2)])
        self.checked = _Checked()
        self.refs = {}
        self.cli_seed = rng.getrandbits(32)

    def setup(self):
        """Build the detectors and fill the kernel tables with one round."""
        self.ops = [self._op(i, *point) for i, point in enumerate(self.points)]
        for op in self.ops:
            op.run()

    def _op(self, i, slot, sdesc, ddescs):
        dets = [cs.detector_from_descriptor(d) for d in ddescs]
        figure = slot.split(".")[0]

        if figure == "fig3":
            def run():
                state = cs.state_from_descriptor(sdesc)
                stats = cs.joint_click_statistics(state, *dets)
                return state, stats, cs.witness_report(stats)
        elif figure == "fig2":
            def run():
                state = cs.state_from_descriptor(sdesc)
                stats = cs.click_statistics(state, dets[0])
                M = cs.moment_matrix(cs.pi_moments(stats), dets[0].N)
                return state, stats, cs.leading_principal_minors(M)
        elif figure == "fig5":
            def run():
                state = cs.state_from_descriptor(sdesc)
                return state, cs.click_statistics(state, dets[0]), None
        else:
            def run():
                state = cs.state_from_descriptor(sdesc)
                stats = cs.click_statistics(state, dets[0])
                return state, stats, cs.witness_report(stats)

        def full_check(out):
            if i not in self.refs:
                self.refs[i] = _reference(sdesc, ddescs)
            ref, (state, stats, extra) = self.refs[i], out
            err = _prob_err(state)
            fails = oracle.check_probs(ref, stats.probs, err,
                                       _physical(ddescs))
            if figure == "fig2":
                fails += oracle.check_minors(ref, extra, err)
            elif extra is not None:
                fails += oracle.check_report(ref, extra, err)
            return fails

        def check(out):
            return self.checked(i, _fingerprint(out), lambda: full_check(out))

        single = None if len(dets) == 2 else (lambda out: (out[0], dets[0]))
        return Op(f"sweep.{slot}", run, check, single=single)

    def round(self, r):
        return self.ops

    def cli_calls(self, r):
        spats = [s for slot, s, _ in self.points if slot == "fig2"]
        tmsv = next(s for slot, s, _ in self.points if slot == "fig3")
        out = str(self.workdir / "cli.out")
        det8 = json.dumps(_FIG2_DET)
        return [
            ["figure", "fig5", "--out", str(self.workdir / "figures")],
            ["witness", "--state", json.dumps({"kind": "thermal", "nbar": 1.0}),
             "--detector", det8, "--grid", "nbar=0:3:4", "--out", out],
            ["witness", "--state", json.dumps(tmsv), "--detector",
             json.dumps(_FIG3_DET), "--detector", json.dumps(_FIG3_DET),
             "--out", out],
            ["sample", "--state", json.dumps(spats[20]), "--detector", det8,
             "--samples", "2000", "--seed", str(self.cli_seed), "--out",
             str(self.workdir / "cli.csv"), "--witness", "--resamples", "200",
             "--report", out],
        ]


# --- first use --------------------------------------------------------------------

# Responses whose only parameter is an integer order n0 (power, nabs) differ
# between rounds by (N, n0): round r takes N = sizes[r % len(sizes)] and
# n0 = 2 + (r // len(sizes)) % orders, so every slot walks _PERIOD distinct
# pairs before it meets its first again.  Slots of the same response have
# disjoint bank sizes, so no two of them share a detector.  n0 stays below 30:
# a Fock state of n0 + 1 photons keeps its table in the first kernel order
# bucket (32), and the nabs table slot stops at 15, where a thermal state
# still clicks with probability far above the kernels' error (its clicks
# vanish into that error from n0 = 24 on).
_PERIOD = 56
# continuous parameters walk by this much per round: far below anything that
# changes a cutoff or a cost, far above float resolution
_STEP = 1e-6


def _order(sizes, r):
    orders = _PERIOD // len(sizes)
    return sizes[r % len(sizes)], 2 + (r // len(sizes)) % orders


class FirstUse:
    """Every operation meets a detector no earlier operation used: one slot
    per (representation, response kind) path of the forward model, each with
    the same cost in every round."""

    name = "first_use"
    # 15 slots a round; the dearest (quadrature-poly) is the top 6.7% of the
    # operations, so p96 sits inside it (see README)
    tail_pct = 96
    rss_rounds = 4

    def __init__(self, seed, workdir):
        self.workdir = workdir
        # the seed shifts every state parameter by the same fraction, below
        # 1e-4: the inputs differ between seeds, their cost does not
        self.shift = 1.0 + 1e-4 * random.Random(f"first_use:{seed}").random()
        self.last = None

    def setup(self):
        """Warm the interpreter and mpmath on N=2 banks, which no round uses."""
        for op in self._ops(-1):
            op.run()

    def _params(self, r):
        """(slot, state, detectors) of round r; r = -1 is the warm-up."""
        warm = r < 0
        walk = _STEP * (r + 1)
        x = self.shift

        def det(N, kind, **kw):
            return {"N": 2 if warm else N, "response": {"kind": kind, **kw}}

        # eta differs between slots by 0.01 or more, and walks by _STEP a round
        def linear(N, eta):
            return det(N, "linear", eta=eta - walk)

        def affine(N, eta):
            return det(N, "affine", eta=eta - walk, nu=0.1)

        def poly(N, eta):
            return det(N, "poly", coefficients=[0.02, eta - walk, 0.15])

        def order(kind, sizes):
            N, n0 = (2, 2) if warm else _order(sizes, r)
            return {"N": N, "response": {"kind": kind, "n0": n0}}

        def thermal(kind, nbar):
            return {"kind": kind, "nbar": nbar * x}

        def odd(mu):
            return {"kind": "odd_coherent", "alpha": math.sqrt(mu * x)}

        def coherent(mu):
            return {"kind": "coherent", "mean_photons": mu * x}

        def tmsv(xi2):
            return {"kind": "tmsv", "xi": math.sqrt(xi2 * x)}

        table_power = order("power", (5, 7))
        # x^n0 gives no clicks on fewer than n0 photons
        above = {"kind": "fock", "n": table_power["response"]["n0"] + 1}
        return [
            # photon-number table contracted against a kernel table
            ("table-linear", thermal("thermal", 0.35), [linear(8, 0.80)]),
            ("table-affine", thermal("spats", 0.35), [affine(8, 0.81)]),
            ("table-poly", {"kind": "fock", "n": 3}, [poly(6, 0.82)]),
            ("table-power", above, [table_power]),
            ("table-nabs", thermal("thermal", 0.35), [order("nabs", (5, 6, 7, 8))]),
            # superlinear response on an infinite-tail family: quadrature
            # for spats (N=3, four integrals), closed forms for coherent
            ("quadrature-poly", thermal("spats", 0.6), [poly(3, 0.83)]),
            ("closed-poly", coherent(2.0), [poly(8, 0.84)]),
            ("closed-power", coherent(2.0), [order("power", (8, 9))]),
            # coherent superposition: response series at cross amplitudes
            ("superposition-linear", odd(0.8), [linear(10, 0.85)]),
            ("superposition-affine", odd(1.0), [affine(10, 0.86)]),
            ("superposition-poly", odd(1.2), [poly(10, 0.87)]),
            ("superposition-power", odd(1.0), [order("power", (3, 4))]),
            ("superposition-nabs", odd(1.0), [order("nabs", (3, 4))]),
            # two-mode table against two kernel tables
            ("joint-linear", tmsv(0.36), [linear(4, 0.88), linear(4, 0.89)]),
            ("joint-affine", tmsv(0.36), [affine(6, 0.90), affine(8, 0.91)]),
        ]

    def _ops(self, r):
        self.last = self._params(r)
        return [self._op(*p) for p in self.last]

    def _op(self, slot, sdesc, ddescs):
        physical = _physical(ddescs)

        def run():
            dets = [cs.detector_from_descriptor(d) for d in ddescs]
            state = cs.state_from_descriptor(sdesc)
            if len(dets) == 2:
                stats = cs.joint_click_statistics(state, *dets)
            else:
                stats = cs.click_statistics(state, dets[0])
            return state, stats, cs.witness_report(stats)

        def check(out):
            return oracle.check(_reference(sdesc, ddescs), out[1].probs,
                                out[2], _prob_err(out[0]), physical)

        single = None
        if len(ddescs) == 1:
            single = lambda out: (out[0], cs.detector_from_descriptor(ddescs[0]))
        return Op(f"first_use.{slot}", run, check, single=single)

    def round(self, r):
        return self._ops(r)

    def cli_calls(self, r):
        last = {slot: (sdesc, ddescs) for slot, sdesc, ddescs in self.last}
        thermal, (lin,) = last["table-linear"]
        spats, (aff,) = last["table-affine"]
        out = str(self.workdir / "cli.out")
        return [
            ["stats", "--state", json.dumps(thermal), "--detector",
             json.dumps(lin), "--out", out],
            ["witness", "--state", json.dumps(spats), "--detector",
             json.dumps(aff), "--out", out],
            ["sample", "--state", json.dumps(thermal), "--detector",
             json.dumps(lin), "--samples", "2000", "--seed", str(r), "--out",
             str(self.workdir / "cli.csv"), "--witness", "--resamples", "200",
             "--report", out],
        ]


# --- Monte Carlo ------------------------------------------------------------------

class MonteCarlo:
    """Simulated experiments drawn from exact statistics made in set-up."""

    name = "monte_carlo"
    tail_pct = 99
    rss_rounds = 20
    resamples = 500

    def __init__(self, seed, workdir):
        rng = random.Random(f"monte_carlo:{seed}")
        self.seed = seed
        self.workdir = workdir
        self.csv = workdir / "histogram.csv"

        def lin(N):
            return {"N": N, "response": {"kind": "linear",
                                         "eta": rng.uniform(0.6, 0.95)}}

        self.sources = [
            ("fock1", {"kind": "fock", "n": 1}, [lin(8)]),
            ("fock2", {"kind": "fock", "n": 2}, [lin(4)]),
            ("coherent", {"kind": "coherent",
                          "mean_photons": rng.uniform(1.0, 6.0)}, [lin(8)]),
            ("thermal", {"kind": "thermal", "nbar": rng.uniform(0.3, 2.0)},
             [{"N": 4, "response": {"kind": "affine",
                                    "eta": rng.uniform(0.6, 0.95),
                                    "nu": rng.uniform(0.01, 0.3)}}]),
            ("spats", {"kind": "spats", "nbar": rng.uniform(0.3, 2.0)}, [lin(8)]),
            ("tmsv", {"kind": "tmsv", "xi": math.sqrt(rng.uniform(0.2, 0.6))},
             [lin(4), lin(4)]),
        ]
        # every round repeats the same experiments: (source, events, draw
        # seed, bootstrap seed)
        self.plan = [(i, int(tier * rng.uniform(0.98, 1.02)), rng.getrandbits(64),
                      rng.getrandbits(64))
                     for i in range(len(self.sources))
                     for tier in (2_000, 20_000, 200_000)]
        self.checked = _Checked()

    def setup(self):
        """Exact statistics of every source, then one warm-up round."""
        self.exact = []
        for _, sdesc, ddescs in self.sources:
            state = cs.state_from_descriptor(sdesc)
            dets = [cs.detector_from_descriptor(d) for d in ddescs]
            if len(dets) == 2:
                stats = cs.joint_click_statistics(state, *dets)
            else:
                stats = cs.click_statistics(state, dets[0])
            self.exact.append((state, dets, stats))
        self.refs = None
        self.ops = [self._op(k, *step) for k, step in enumerate(self.plan)]
        for op in self.ops:
            op.run()

    def _references(self):
        # made on first use, outside set-up: they are the benchmark's, not
        # the program's, work
        if self.refs is None:
            self.refs = [[float(p) for p in
                          oracle._flat(_reference(sdesc, ddescs).probs)]
                         for _, sdesc, ddescs in self.sources]
        return self.refs

    def round(self, r):
        return self.ops

    def _op(self, k, i, n, draw_seed, boot_seed):
        label = self.sources[i][0]
        state, dets, stats = self.exact[i]

        def run():
            hist = cs.sample_clicks(stats, n, draw_seed)
            cs.write_histogram_csv(hist, self.csv)
            back = cs.read_histogram_csv(self.csv)
            return hist, back, cs.bootstrap_witness(back, self.resamples,
                                                    boot_seed)

        def full_check(out):
            hist, back, report = out
            fails = []
            if hist.total != n:
                fails.append(f"histogram holds {hist.total} events, drew {n}")
            if back.counts.shape != hist.counts.shape or not np.array_equal(
                    back.counts, hist.counts):
                fails.append("CSV round trip changed the counts")
            counts = hist.counts.ravel().tolist()
            p = oracle.goodness_of_fit(counts, self._references()[i])
            if p < GOF_ALPHA:
                fails.append(f"goodness of fit p = {p:.3g} < {GOF_ALPHA}")
            if label.startswith("fock") and report.verdict != "nonclassical":
                fails.append(f"Fock source not flagged: {report.verdict!r}")
            se = report.uncertainties["leading_minors"]
            if not all(math.isfinite(s) and s >= 0.0 for s in se):
                fails.append(f"bad bootstrap errors {se!r}")
            # the point estimate is the witness on float inputs: compare with
            # an exact-rational, 256-bit recomputation from the same counts
            ref = oracle.empirical_reference(back.counts.tolist())
            fails += oracle.check_report(ref, report, 2e-16,
                                         verdict=False)
            return fails

        def check(out):
            hist, back, report = out
            fp = (hist.counts.tobytes(), back.counts.tobytes(),
                  json.dumps(report.to_dict()))
            return self.checked(k, fp, lambda: full_check(out))

        single = None
        if len(dets) == 1:
            single = lambda out: (state, dets[0])
        return Op(f"monte_carlo.{label}", run, check, single=single,
                  first_in_run=False)

    def cli_calls(self, r):
        out = str(self.workdir / "cli.out")
        hist = str(self.workdir / "cli.csv")
        calls = []
        for label, sdesc, ddescs in (self.sources[0], self.sources[-1]):
            argv = ["sample", "--state", json.dumps(sdesc)]
            for d in ddescs:
                argv += ["--detector", json.dumps(d)]
            calls.append(argv + ["--samples", "5000", "--seed", str(r),
                                 "--out", hist, "--witness", "--resamples",
                                 "200", "--report", out])
        calls.append(["witness", "--histogram", hist, "--resamples", "200",
                      "--seed", str(r), "--out", out])
        return calls


WORKLOADS = {w.name: w for w in (Sweep, FirstUse, MonteCarlo)}
