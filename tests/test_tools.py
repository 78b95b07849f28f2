"""Tests for `tools/sweep_identity.py`, the two-checkout comparison tool:
its comparisons on planted differences, and one run of the tool; one run
of `tools/slot_times.py`, which times the slots of a workload; and one run
of `tools/make_goldens.py`, which must still write `tests/goldens.py`."""

import importlib.util
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "sweep_identity.py"
SLOT_TIMES = ROOT / "tools" / "slot_times.py"
MAKE_GOLDENS = ROOT / "tools" / "make_goldens.py"
_spec = importlib.util.spec_from_file_location("sweep_identity", TOOL)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

FIG2 = b"nbar,minor2\n0.1,-0.5\n0.2,0.25\n"
FIG4 = b"t,dt,b\n0.0,0.0,0.0\n"


class TestCompareTables:
    def test_equal_tables(self):
        tables = {"fig2.csv": FIG2, "fig4.csv": FIG4}
        assert tool.compare_tables(tables, dict(tables)) == (
            [], "2 tables, identical")

    def test_one_changed_byte(self):
        new = {"fig2.csv": FIG2.replace(b"0.25", b"0.35"), "fig4.csv": FIG4}
        problems, summary = tool.compare_tables(
            {"fig2.csv": FIG2, "fig4.csv": FIG4}, new)
        # |0.35 - 0.25| = 0.1, relative to the larger 0.35
        assert problems == [
            "fig2.csv: largest gap 1.000e-01 absolute, 2.857e-01 relative"]
        assert summary == "2 tables, 1 differ"

    def test_changed_header(self):
        problems, _ = tool.compare_tables(
            {"fig2.csv": FIG2}, {"fig2.csv": FIG2.replace(b"nbar", b"nbaR")})
        assert problems == ["fig2.csv: differs in header or shape"]

    def test_missing_table(self):
        problems, summary = tool.compare_tables(
            {"fig2.csv": FIG2, "fig4.csv": FIG4}, {"fig2.csv": FIG2})
        assert problems == ["fig4.csv: missing on one side"]
        assert summary == "2 tables, 1 differ"


def fingerprint(probs, exact=(Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))):
    """A fig5 operation's fingerprint: click numbers, exact, exact_error."""
    return pickle.dumps((np.array(probs).tobytes(), exact, 0.0))


class TestCompareFingerprints:
    OLD = fingerprint([0.25, 0.5, 0.25])

    def test_equal_fingerprints(self):
        assert tool.compare_fingerprints([(self.OLD, self.OLD)] * 2) == (
            [], "identical")

    def test_one_changed_byte(self):
        # the next float above 0.5 differs from it in its lowest byte only
        new = fingerprint([0.25, math.nextafter(0.5, 1), 0.25])
        assert len(new) == len(self.OLD)
        assert sum(a != b for a, b in zip(self.OLD, new)) == 1
        problems, summary = tool.compare_fingerprints(
            [(self.OLD, self.OLD), (self.OLD, new)])
        assert problems == [(1, ["probs: [0.25, 0.5, 0.25] -> "
                                 "[0.25, 0.5000000000000001, 0.25]"])]
        assert summary == "1 differ"


def monte_carlo_output(qb=-0.125, csv=b"k,count\n0,5\n1,5\n"):
    """A monte_carlo operation's outputs: histogram bytes, CSV bytes, the
    histogram read back, and the report as a dict."""
    report = {"leading_minors": [1.0, -0.5], "min_eigenvalue": -0.25,
              "qb": qb, "cross_minor": None, "verdict": "nonclassical",
              "uncertainties": {"leading_minors": [0.0, 0.01],
                                "min_eigenvalue": 0.02, "qb": 0.03}}
    return pickle.dumps((b"\x05\x05", csv, b"\x05\x05", report))


class TestCompareMonteCarlo:
    OLD = monte_carlo_output()

    def test_equal_outputs(self):
        assert tool.compare_monte_carlo([(self.OLD, self.OLD)]) == (
            [], "largest relative change 0 in point estimates, "
            "0 in uncertainties")

    @pytest.mark.parametrize("scale", [1 + 1e-8, 1 + 2 * tool.LIMIT])
    def test_relative_change_above_the_limit(self, scale):
        new = monte_carlo_output(qb=-0.125 * scale)
        problems, summary = tool.compare_monte_carlo([(self.OLD, new)])
        assert problems == [(None, [f"relative change above {tool.LIMIT:g}"])]
        assert summary.startswith(f"largest relative change "
                                  f"{(scale - 1) / scale:.3g} in point")

    def test_relative_change_within_the_limit(self):
        new = monte_carlo_output(qb=-0.125 * (1 + tool.LIMIT / 2))
        assert tool.compare_monte_carlo([(self.OLD, new)])[0] == []

    def test_one_changed_csv_byte(self):
        new = monte_carlo_output(csv=b"k,count\n0,5\n1,6\n")
        problems, _ = tool.compare_monte_carlo([(self.OLD, self.OLD),
                                                (self.OLD, new)])
        assert problems == [(1, ["CSV files differ"])]


def test_checkout_env(tmp_path):
    env = tool.checkout_env(tmp_path)
    paths = env["PYTHONPATH"].split(os.pathsep)
    assert paths[:2] == [str(tmp_path / "src"), str(tmp_path / "perfbench")]
    assert all(env[name] == "1" for name in tool._THREADS)


def test_monte_carlo_against_itself():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT),
         "--workload", "monte_carlo", "--seeds", "1"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("seed 1: 18 operations, largest relative change "
                           "0 in point estimates, 0 in uncertainties\n")


def test_slot_times_against_itself():
    done = subprocess.run(
        [sys.executable, str(SLOT_TIMES), str(ROOT), str(ROOT),
         "--workload", "monte_carlo", "--rounds", "3"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = {line.split()[0]: line.split()[1:]
            for line in done.stdout.splitlines()[2:]}
    old, new, ratio = map(float, rows["round"])
    assert old > 0 and new > 0 and math.isfinite(ratio) and ratio > 0


def test_slot_times_needs_a_round():
    done = subprocess.run(
        [sys.executable, str(SLOT_TIMES), str(ROOT), str(ROOT),
         "--rounds", "0"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "--rounds must be at least 1" in done.stderr


def test_goldens_come_from_their_generator(tmp_path):
    # the script writes ../tests/goldens.py beside its own folder, so a copy
    # in a tree of its own regenerates the file there and never touches the
    # checked-in one
    (tmp_path / "tools").mkdir()
    (tmp_path / "tests").mkdir()
    script = tmp_path / "tools" / MAKE_GOLDENS.name
    script.write_bytes(MAKE_GOLDENS.read_bytes())
    checked_in = (ROOT / "tests" / "goldens.py").read_bytes()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "tests" / "goldens.py").read_bytes() == checked_in
    assert (ROOT / "tests" / "goldens.py").read_bytes() == checked_in
