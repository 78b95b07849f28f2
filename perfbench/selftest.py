"""Shows that the benchmark's output checks catch wrong answers.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For one input of every (state family,
response) pair the workloads use, the program's output must pass its check,
and must fail it when the reference is perturbed:

* the response intensity scaled by 1 + 1e-9 in the oracle,
* the program's 2x2 minor shifted by 1e-8 before the comparison,
* for Monte Carlo histograms, one event moved to another outcome before
  the exact recomputation of the witness, and the exact statistics taken at
  0.9 times the intensity in the goodness-of-fit test.

Exit status 0 when every check passes on the right reference and fails on
every perturbed one.  Every reference is computed at run time from the
closed forms in oracle.py, so there are no stored values to regenerate.
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import clickstats as cs  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

PERTURB = 1 + 1e-9


def _program(sdesc, ddescs):
    state = cs.state_from_descriptor(sdesc)
    dets = [cs.detector_from_descriptor(d) for d in ddescs]
    if len(dets) == 2:
        stats = cs.joint_click_statistics(state, *dets)
    else:
        stats = cs.click_statistics(state, dets[0])
    return state, stats, cs.witness_report(stats)


def _reference(sdesc, ddescs, scale=1.0):
    if len(ddescs) == 2:
        return oracle.joint_reference(sdesc, *ddescs, scale=scale)
    return oracle.single_reference(sdesc, ddescs[0], scale=scale)


def exact_cases():
    """(label, state descriptor, detector descriptors) for every pair."""
    workdir = ROOT / ".perfbench"
    cases = [(f"first_use.{slot}", s, d)
             for slot, s, d in workloads.FirstUse(1, workdir)._params(0)]
    by_slot = {}
    for slot, sdesc, ddescs in workloads.Sweep(1, workdir).points:
        by_slot.setdefault(slot, []).append((sdesc, ddescs))
    # the middle point of each sweep: the first ones sit near the vacuum
    for slot, points in by_slot.items():
        cases.append((f"sweep.{slot}", *points[len(points) // 2]))
    return cases


def main():
    bad = []
    for label, sdesc, ddescs in exact_cases():
        state, stats, report = _program(sdesc, ddescs)
        err = workloads._prob_err(state)
        physical = workloads._physical(ddescs)

        def fails(ref, rep=report):
            return oracle.check(ref, stats.probs, rep, err, physical)

        good = fails(_reference(sdesc, ddescs))
        scaled = fails(_reference(sdesc, ddescs, scale=PERTURB))
        minors = list(report.leading_minors)
        minors[1] += 1e-8
        bent = fails(_reference(sdesc, ddescs),
                     dataclasses.replace(report, leading_minors=tuple(minors)))
        ok = not good and scaled and bent
        print(f"{'ok ' if ok else 'BAD'} {label:28s} right: {len(good)} failures; "
              f"intensity x(1+1e-9): {len(scaled)}; 2x2 minor +1e-8: "
              f"{len(bent)}")
        if not ok:
            bad.append(label)

    mc = workloads.MonteCarlo(1, ROOT / ".perfbench")
    for label, sdesc, ddescs in mc.sources:
        _, stats, _ = _program(sdesc, ddescs)
        hist = cs.sample_clicks(stats, 200_000, 7)
        report = cs.bootstrap_witness(hist, 200, 8)
        counts = hist.counts.ravel().tolist()
        probs = [float(p) for p in oracle._flat(_reference(sdesc, ddescs).probs)]
        wrong = [float(p) for p in
                 oracle._flat(_reference(sdesc, ddescs, scale=0.9).probs)]
        fit = oracle.goodness_of_fit(counts, probs)
        misfit = oracle.goodness_of_fit(counts, wrong)

        def witness_fails(nested):
            ref = oracle.empirical_reference(nested)
            return oracle.check_report(ref, report, 2e-16,
                                       verdict=False)

        good = witness_fails(hist.counts.tolist())
        moved = hist.counts.copy()
        top = moved.argmax()
        flat = moved.reshape(-1)
        flat[top] -= 1
        flat[(top + 1) % flat.size] += 1
        shifted = witness_fails(moved.tolist())
        ok = (fit >= workloads.GOF_ALPHA and misfit < workloads.GOF_ALPHA
              and not good and shifted)
        print(f"{'ok ' if ok else 'BAD'} monte_carlo.{label:16s} fit p={fit:.3g}; "
              f"at 0.9 intensity p={misfit:.3g}; witness right: {len(good)} "
              f"failures; one event moved: {len(shifted)}")
        if not ok:
            bad.append(f"monte_carlo.{label}")
    if bad:
        print(f"checks that did not behave: {', '.join(bad)}")
        return 1
    print("every check passes on the right reference and fails on a perturbed one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
