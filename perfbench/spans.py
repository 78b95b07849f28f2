"""In-memory spans around calls into the program's public functions.

The program is not changed: `Tracer.install` swaps each public function named
in LAYERS for a wrapper in every loaded clickstats module that binds it, so
calls between modules (witness_report -> pi_moments, cli.main ->
click_statistics, ...) nest as child spans.  `uninstall` puts the originals
back.  A span records its name, start, end and parent; self time is the
span's duration minus that of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# module -> public functions that get a span named "<module>.<function>"
LAYERS = {
    "states": ("coherent_distribution", "thermal_distribution",
               "spats_distribution", "fock_distribution", "odd_coherent",
               "tmsv_joint", "state_from_descriptor"),
    "detector": ("click_statistics", "joint_click_statistics"),
    "witness": ("witness_report", "pi_moments", "joint_pi_moments",
                "leading_principal_minors", "min_eigenvalue", "qb_parameter",
                "cross_correlation_minor"),
    "sampler": ("sample_clicks", "write_histogram_csv", "read_histogram_csv",
                "estimate_statistics", "bootstrap_witness"),
    "cli": ("main",),
}


def _fock_levels(name, args, result):
    """(level, k) pairs contracted against a kernel table.

    Only a table contraction carries the state's tail bound as the
    statistics' normalisation slack; the analytic path reports none, and
    superpositions have no table at all."""
    state = args[0]
    probs = getattr(state, "probs", None)
    if probs is None or result.norm_slack != state.tail_bound:
        return 0
    levels = int((np.asarray(probs) != 0.0).sum())
    if name == "detector.click_statistics":
        return levels * (args[1].N + 1)
    return levels * (args[1].N + 1) * (args[2].N + 1)


# counters kept at the same boundaries as the spans: name of the count and
# f(span name, call arguments, result)
COUNTERS = {
    "detector.click_statistics": ("detector.fock_levels", _fock_levels),
    "detector.joint_click_statistics": ("detector.fock_levels", _fock_levels),
    "witness.leading_principal_minors":
        ("witness.minors", lambda name, args, result: args[0].dim),
    "sampler.sample_clicks":
        ("sampler.events", lambda name, args, result: args[1]),
    "sampler.bootstrap_witness":
        ("sampler.resamples", lambda name, args, result: args[1]),
}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._swapped = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if n == "clickstats" or n.startswith("clickstats.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"clickstats.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._swapped.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._swapped):
            setattr(mod, attr, orig)
        self._swapped = []

    def self_times(self, lo, hi):
        """Self time in seconds per span name over spans[lo:hi], a range
        that holds every child of every span in it."""
        child = Counter()
        for name, start, end, parent in self.spans[lo:hi]:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i in range(lo, hi):
            name, start, end, _ = self.spans[i]
            out[name] += (end - start) - child[i]
        return out

    def ancestors(self, idx):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
