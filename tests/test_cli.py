"""Tests for the command line front end, run in process."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickstats.cli import _MAX_GRID_STEPS, _parse_grid, main

FOCK1 = '{"kind": "fock", "n": 1}'
COHERENT1 = '{"kind": "coherent", "mean_photons": 1.0}'
DET_N4 = '{"N": 4, "response": {"kind": "linear", "eta": 0.5}}'
DET_N8 = '{"N": 8, "response": {"kind": "linear", "eta": 0.9}}'
DET_N4_08 = '{"N": 4, "response": {"kind": "linear", "eta": 0.8}}'
TMSV = '{"kind": "tmsv", "xi": 0.7071067811865476}'


def read_csv(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


class TestStats:
    def test_fock_one_table(self, capsys):
        code = main(["stats", "--state", FOCK1, "--detector", DET_N4])
        assert code == 0
        rows = read_csv(capsys.readouterr().out)
        assert rows[0] == ["k", "probability"]
        values = [float(r[1]) for r in rows[1:]]
        assert len(values) == 5
        assert abs(values[0] - 0.5) < 1e-14
        assert abs(values[1] - 0.5) < 1e-14
        assert all(v == 0.0 for v in values[2:])

    def test_json_format(self, capsys):
        code = main(["stats", "--state", FOCK1, "--detector", DET_N4,
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0] == {"k": 0, "probability": 0.5}

    def test_joint_table(self, capsys):
        code = main(["stats", "--state", TMSV,
                     "--detector", DET_N4_08, "--detector", DET_N4_08])
        assert code == 0
        rows = read_csv(capsys.readouterr().out)
        assert rows[0] == ["k1", "k2", "probability"]
        assert len(rows) == 1 + 25
        total = sum(float(r[2]) for r in rows[1:])
        assert abs(total - 1.0) < 1e-9

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "stats.csv"
        code = main(["stats", "--state", FOCK1, "--detector", DET_N4,
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8").startswith("k,probability")

    def test_state_file_input(self, tmp_path, capsys):
        state_file = tmp_path / "state.json"
        state_file.write_text(FOCK1, encoding="utf-8")
        code = main(["stats", "--state", str(state_file),
                     "--detector", DET_N4])
        assert code == 0

    def test_malformed_json(self, capsys):
        code = main(["stats", "--state", '{"kind": "fock", ',
                     "--detector", DET_N4])
        assert code == 2
        assert capsys.readouterr().err

    def test_missing_state_file(self, capsys):
        code = main(["stats", "--state", "/nonexistent/state.json",
                     "--detector", DET_N4])
        assert code == 2

    def test_detector_count_mismatch(self, capsys):
        code = main(["stats", "--state", TMSV, "--detector", DET_N4_08])
        assert code == 2
        code = main(["stats", "--state", FOCK1,
                     "--detector", DET_N4, "--detector", DET_N4])
        assert code == 2

    def test_unknown_state_kind(self, capsys):
        code = main(["stats", "--state", '{"kind": "laser"}',
                     "--detector", DET_N4])
        assert code == 2

    @pytest.mark.parametrize("nbar, tol", [(144124.7, 0.5), (3098.5, 1e-14)])
    def test_spats_cutoff_limit(self, nbar, tol, capsys):
        # q^M is within tol before 100000 photon numbers, but the spats tail
        # carries (M+1+nbar)/(nbar+1) and needs 241892 and 111077 of them
        state = json.dumps({"kind": "spats", "nbar": nbar, "tol": tol})
        code = main(["stats", "--state", state, "--detector", DET_N4])
        assert code == 2
        assert "100000" in capsys.readouterr().err

    def test_precision_flag(self, capsys):
        code = main(["stats", "--state", COHERENT1, "--detector", DET_N8,
                     "--precision", "300"])
        assert code == 0

    def test_forced_precision_is_a_floor(self, capsys):
        # Fock 90 on 3-photon absorbers: --precision 280 lay below the bits
        # the series kernels needed and printed c_0 = 1.9e-13 with exit 0;
        # the float kernels take no precision and print the true 0.0
        args = ["stats", "--state", '{"kind": "fock", "n": 90}', "--detector",
                '{"N": 4, "response": {"kind": "nabs", "n0": 3}}']
        assert main(args + ["--precision", "280"]) == 0
        forced = capsys.readouterr().out
        assert forced.splitlines()[1] == "0,0.0"
        assert main(args) == 0
        assert capsys.readouterr().out == forced

    def test_forced_precision_floors_the_quadrature(self, capsys):
        # thermal light on a formal bank goes through quadrature, which ran
        # at the forced 53 bits and stalled with exit 3; 53 is now a floor
        # under the default 220 bits
        args = ["stats", "--state", '{"kind": "thermal", "nbar": 1}',
                "--detector", '{"N": 4, "response": {"kind": "power", "n0": 2}}']
        assert main(args + ["--precision", "53"]) == 0
        forced = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == forced


class TestWitness:
    def test_fock_one_nonclassical_exit_zero(self, capsys):
        code = main(["witness", "--state", FOCK1, "--detector", DET_N8])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "nonclassical"
        assert report["leading_minors"][1] < 0

    def test_coherent_consistent(self, capsys):
        code = main(["witness", "--state", COHERENT1, "--detector", DET_N8])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "consistent-with-classical"
        assert report["qb"] is not None

    def test_joint_report(self, capsys):
        code = main(["witness", "--state", TMSV,
                     "--detector", DET_N4_08, "--detector", DET_N4_08])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cross_minor"] < 0
        assert report["verdict"] == "nonclassical"

    def test_grid_table(self, capsys):
        code = main(["witness", "--state", '{"kind": "spats", "nbar": 1.0}',
                     "--detector", DET_N8, "--grid", "nbar=0.1:0.5:3"])
        assert code == 0
        rows = read_csv(capsys.readouterr().out)
        assert rows[0][0] == "nbar"
        assert rows[0][-1] == "verdict"
        assert len(rows) == 4
        # small nbar keeps the 2x2 minor negative
        assert float(rows[1][2]) < 0
        assert rows[1][-1] == "nonclassical"

    def test_joint_grid_table(self, capsys):
        # two banks take the cross minor in the column one bank gives Q_B
        dets = ["--detector", DET_N4_08] * 2
        assert main(["witness", "--state", '{"kind": "tmsv", "xi": 0.3}']
                    + dets) == 0
        point = json.loads(capsys.readouterr().out)
        assert main(["witness", "--state", TMSV, "--grid", "xi=0.3:0.6:2"]
                    + dets) == 0
        rows = read_csv(capsys.readouterr().out)
        assert rows[0][0] == "xi"
        assert rows[0][-3:] == ["min_eigenvalue", "cross_minor", "verdict"]
        assert "qb" not in rows[0] and len(rows) == 3
        assert float(rows[1][-2]) == point["cross_minor"] < 0
        assert rows[1][-1] == point["verdict"] == "nonclassical"

    def test_histogram_path(self, tmp_path, capsys):
        hist_file = tmp_path / "hist.csv"
        code = main(["sample", "--state", FOCK1, "--detector", DET_N8,
                     "--samples", "200000", "--seed", "42",
                     "--out", str(hist_file)])
        assert code == 0
        code = main(["witness", "--histogram", str(hist_file),
                     "--resamples", "200", "--seed", "7"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "nonclassical"
        assert "uncertainties" in report

    def test_histogram_conflicts_with_state(self, tmp_path, capsys):
        hist_file = tmp_path / "hist.csv"
        hist_file.write_text("k,count\n0,5\n1,5\n", encoding="utf-8")
        code = main(["witness", "--histogram", str(hist_file),
                     "--state", FOCK1])
        assert code == 2

    def test_witness_needs_input(self, capsys):
        assert main(["witness"]) == 2


class TestSample:
    def test_stdout_histogram(self, capsys):
        code = main(["sample", "--state", FOCK1, "--detector", DET_N4,
                     "--samples", "1000", "--seed", "5"])
        assert code == 0
        rows = read_csv(capsys.readouterr().out)
        assert rows[0] == ["k", "count"]
        assert sum(int(r[1]) for r in rows[1:]) == 1000

    def test_deterministic_files(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["sample", "--state", FOCK1, "--detector", DET_N8,
                "--samples", "5000", "--seed", "42"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_samples(self, capsys):
        code = main(["sample", "--state", FOCK1, "--detector", DET_N4,
                     "--samples", "0"])
        assert code == 2

    def test_chained_witness(self, tmp_path, capsys):
        report_file = tmp_path / "report.json"
        hist_file = tmp_path / "hist.csv"
        code = main(["sample", "--state", FOCK1, "--detector", DET_N8,
                     "--samples", "100000", "--seed", "42",
                     "--witness", "--resamples", "200",
                     "--out", str(hist_file), "--report", str(report_file)])
        assert code == 0
        report = json.loads(report_file.read_text(encoding="utf-8"))
        assert report["verdict"] == "nonclassical"
        assert report["uncertainties"]["resamples"] == 200

    def test_bootstrap_refuses_171_diodes(self, capsys):
        # the bootstrap's float moments divide by N!/(N-m)!, and 171! is
        # beyond float range: the histogram is drawn, the witness refused
        argv = ["sample", "--state", '{"kind": "thermal", "nbar": 1.0}',
                "--detector", '{"N": 171, "response": '
                '{"kind": "linear", "eta": 0.9}}', "--samples", "1000",
                "--seed", "3"]
        assert main(argv) == 0
        rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 1 + 172
        assert sum(int(r[1]) for r in rows[1:]) == 1000
        assert main(argv + ["--witness"]) == 2
        assert "at most 170 diodes" in capsys.readouterr().err

    def test_huge_sample_count(self, capsys):
        # one multinomial draw: 1e11 events need no per-event memory
        code = main(["sample", "--state", FOCK1, "--detector", DET_N4,
                     "--samples", "100000000000", "--seed", "5"])
        assert code == 0
        rows = read_csv(capsys.readouterr().out)
        assert sum(int(r[1]) for r in rows[1:]) == 10 ** 11

    def test_sample_count_beyond_int64(self, capsys):
        code = main(["sample", "--state", FOCK1, "--detector", DET_N4,
                     "--samples", str(2 ** 63)])
        assert code == 2
        assert "n_samples" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, reason", [
        ("0,9223372036854775808\n", "count of 2^63 or more"),
        ("0,4611686018427387904\n1,4611686018427387904\n",
         "2^63 events or more"),
    ])
    def test_histogram_beyond_int64(self, tmp_path, capsys, rows, reason):
        # a count of 2^63, or two of 2^62 whose int64 sum wraps to -2^63
        hist_file = tmp_path / "hist.csv"
        hist_file.write_text("k,count\n" + rows, encoding="utf-8")
        code = main(["witness", "--histogram", str(hist_file)])
        assert code == 2
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "k,count\n0,5\n10000000000000,1\n",
        "k1,k2,count\n0,0,5\n1,10000000000000,1\n",
    ], ids=["single", "joint"])
    def test_histogram_index_beyond_limit(self, tmp_path, capsys, text):
        # a table sized by this index would need terabytes
        hist_file = tmp_path / "hist.csv"
        hist_file.write_text(text, encoding="utf-8")
        code = main(["witness", "--histogram", str(hist_file)])
        assert code == 2
        assert "click number above 170" in capsys.readouterr().err


class TestFigures:
    def test_unknown_name(self, capsys):
        assert main(["figure", "fig9"]) == 2

    def test_fig5_binomial(self, tmp_path):
        code = main(["figure", "fig5", "--out", str(tmp_path)])
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["fig5_affine.csv", "fig5_linear.csv",
                         "fig5_nabs2.csv", "fig5_poly.csv"]
        for name in names:
            rows = read_csv((tmp_path / name).read_text(encoding="utf-8"))
            assert len(rows) == 1 + 17
        # linear response at unit efficiency: p = 1 - exp(-mu/N)
        rows = read_csv((tmp_path / "fig5_linear.csv").read_text("utf-8"))
        p = 1.0 - math.exp(-4.0 / 16.0)
        for k in (0, 8, 16):
            want = math.comb(16, k) * p**k * (1 - p) ** (16 - k)
            assert abs(float(rows[1 + k][1]) - want) < 1e-10

    def test_fig4_surface(self, tmp_path):
        code = main(["figure", "fig4", "--out", str(tmp_path),
                     "--grid", "t=0:1:5", "--grid", "dt=0:1:5"])
        assert code == 0
        rows = read_csv((tmp_path / "fig4.csv").read_text(encoding="utf-8"))
        assert rows[0] == ["t", "dt", "b"]
        assert len(rows) == 1 + 25
        values = [float(r[2]) for r in rows[1:]]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_fig4_dimensionless_labels(self, tmp_path):
        code = main(["figure", "fig4", "--out", str(tmp_path),
                     "--grid", "t=0:1:3", "--grid", "dt=0:1:3",
                     "--dimensionless"])
        assert code == 0
        rows = read_csv((tmp_path / "fig4.csv").read_text(encoding="utf-8"))
        assert rows[0] == ["gamma_t", "gamma_dt", "b"]

    def test_fig2_small_grid(self, tmp_path):
        code = main(["figure", "fig2", "--out", str(tmp_path),
                     "--grid", "nbar=0.1:0.3:3"])
        assert code == 0
        rows = read_csv((tmp_path / "fig2.csv").read_text(encoding="utf-8"))
        assert rows[0][:5] == ["nbar", "minor2", "minor3", "minor4", "minor5"]
        assert len(rows) == 4
        # below the crossover the 2x2 minor is negative
        assert all(float(r[1]) < 0 for r in rows[1:])

    def test_fig3_small_grid(self, tmp_path):
        code = main(["figure", "fig3", "--out", str(tmp_path),
                     "--grid", "xi2=0.3:0.7:3"])
        assert code == 0
        rows = read_csv((tmp_path / "fig3.csv").read_text(encoding="utf-8"))
        assert rows[0] == ["xi2", "cross_minor", "cross_minor_x1e3"]
        assert all(float(r[1]) < 0 for r in rows[1:])

    def test_fig6_small_grid(self, tmp_path):
        code = main(["figure", "fig6", "--out", str(tmp_path),
                     "--grid", "alpha2=0.5:1.0:2"])
        assert code == 0
        rows = read_csv((tmp_path / "fig6.csv").read_text(encoding="utf-8"))
        assert rows[0][0] == "alpha2"
        assert len(rows) == 3
        # the linear-response minor is negative for small alpha^2
        assert float(rows[1][1]) < 0

    def test_bad_grid_expression(self, tmp_path):
        assert main(["figure", "fig2", "--out", str(tmp_path),
                     "--grid", "nbar=0:3"]) == 2
        assert main(["figure", "fig2", "--out", str(tmp_path),
                     "--grid", "mu=0:3:5"]) == 2

    def test_json_figure(self, tmp_path):
        code = main(["figure", "fig4", "--out", str(tmp_path),
                     "--grid", "t=0:1:2", "--grid", "dt=0:1:2",
                     "--format", "json"])
        assert code == 0
        data = json.loads((tmp_path / "fig4.json").read_text(encoding="utf-8"))
        assert len(data) == 4
        assert set(data[0]) == {"t", "dt", "b"}


class TestErrorMapping:
    def test_no_command(self):
        assert main([]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_negative_seed(self, capsys):
        code = main(["sample", "--state", FOCK1, "--detector", DET_N4,
                     "--samples", "10", "--seed", "-1"])
        assert code == 2

    def test_bad_detector_response(self, capsys):
        code = main(["stats", "--state", FOCK1, "--detector",
                     '{"N": 4, "response": {"kind": "warp"}}'])
        assert code == 2


LINEAR4 = {"N": 4, "response": {"kind": "linear", "eta": 0.9}}


class TestBadNumbers:
    """Non-finite or unusable descriptor numbers give exit 2 and a message,
    never NaN output with exit 0, a traceback or a hang."""

    @pytest.mark.parametrize("state,detector", [
        ({"kind": "thermal", "nbar": "nan"}, LINEAR4),
        ({"kind": "spats", "nbar": "nan"}, LINEAR4),
        ({"kind": "thermal", "nbar": math.nan}, LINEAR4),
        ({"kind": "coherent", "mean_photons": "inf"}, LINEAR4),
        ({"kind": "coherent", "mean_photons": 1e308}, LINEAR4),
        ({"kind": "spats", "nbar": 1e308}, LINEAR4),
        ({"kind": "fock", "n": math.inf}, LINEAR4),
        ({"kind": "thermal", "nbar": 1.0},
         {"N": 4, "response": {"kind": "affine", "eta": 0.9, "nu": "nan"}}),
        ({"kind": "thermal", "nbar": 1.0},
         {"N": 4, "response": {"kind": "poly",
                               "coefficients": [0.0, 1.0, "nan"]}}),
        ({"kind": "thermal", "nbar": 1.0},
         {"N": math.inf, "response": {"kind": "linear", "eta": 0.9}}),
    ])
    def test_exit_two(self, state, detector, capsys):
        code = main(["stats", "--state", json.dumps(state),
                     "--detector", json.dumps(detector)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("argv,message", [
        (["witness", "--state", '{"kind": "thermal", "nbar": 1.0}',
          "--detector", DET_N4, "--grid", "nbar=0.1:0.5:3",
          "--grid", "nbar=1:2:2"], "witness takes a single --grid"),
        (["stats", "--state", FOCK1, "--detector", DET_N4,
          "--precision", "52"],
         "--precision must be at least 53 bits, got 52"),
    ], ids=["two-grids", "precision-52"])
    def test_refused_option_exit_two(self, argv, message, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_tmsv_near_one_exit_two(self, capsys):
        det = json.dumps(LINEAR4)
        code = main(["stats", "--state",
                     '{"kind": "tmsv", "xi": 0.99999999999}',
                     "--detector", det, "--detector", det])
        assert code == 2
        assert "100000" in capsys.readouterr().err

    def test_huge_odd_coherent_amplitude_names_alpha(self, capsys):
        # |alpha|^2 overflows a float here
        code = main(["stats", "--state",
                     '{"kind": "odd_coherent", "alpha": [1e300, 0]}',
                     "--detector", json.dumps(LINEAR4)])
        err = capsys.readouterr().err
        assert code == 2
        assert "alpha" in err and "100000" in err

    def test_bright_thermal_ends(self):
        # q = nbar/(nbar+1) rounds to one at nbar = 1e308, where an
        # unchecked cutoff loop never ends; a child process under a timeout
        # keeps such a hang from stalling the suite
        proc = subprocess.run(
            [sys.executable, "-m", "clickstats", "stats", "--state",
             '{"kind": "thermal", "nbar": 1e308}',
             "--detector", json.dumps(LINEAR4)],
            capture_output=True, text=True, timeout=60, env=_child_env())
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "100000" in proc.stderr

    def test_thermal_tail_within_its_slack(self, capsys):
        # a 1e-11 tolerance leaves a 7.3e-12 tail; the moment checks
        # allow the statistics' own slack
        code = main(["witness", "--state",
                     '{"kind": "thermal", "nbar": 1.0, "tol": 1e-11}',
                     "--detector", DET_N8])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "consistent-with-classical"


class TestIntegerFields:
    """Integer descriptor fields take ints and integral floats; anything
    else exits 2 instead of being truncated, and sizes past the 100000
    photon numbers of a state are refused before any work."""

    @staticmethod
    def stats(state, detector, capsys):
        code = main(["stats", "--state", json.dumps(state),
                     "--detector", json.dumps(detector)])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("value", [2.5, True, "3", 1e-300])
    def test_fock_n(self, value, capsys):
        code, out = self.stats({"kind": "fock", "n": value}, LINEAR4, capsys)
        assert code == 2 and out.out == ""
        assert out.err.startswith("error: n must be an integer")

    @pytest.mark.parametrize("value", [4.7, True, "3"])
    def test_diode_count(self, value, capsys):
        code, out = self.stats({"kind": "fock", "n": 1},
                               {**LINEAR4, "N": value}, capsys)
        assert code == 2 and out.out == ""
        assert out.err.startswith("error: N must be an integer")

    @pytest.mark.parametrize("kind", ["power", "nabs"])
    @pytest.mark.parametrize("value", [2.5, False, "2"])
    def test_order(self, kind, value, capsys):
        code, out = self.stats({"kind": "fock", "n": 1},
                               {"N": 4, "response": {"kind": kind,
                                                     "n0": value}}, capsys)
        assert code == 2 and out.out == ""
        assert out.err.startswith("error: n0 must be an integer")

    @pytest.mark.parametrize("n0", [100001, 10 ** 9])
    def test_absorption_order_bound(self, n0, capsys, monkeypatch):
        # an order of 1e9 summed 1e9 mpmath terms per amplitude pair; it is
        # refused before any no-click value is taken
        from clickstats import detector

        def no_sum(*args):
            raise AssertionError("a no-click value was computed")

        monkeypatch.setattr(detector, "_no_click_factor", no_sum)
        code, out = self.stats({"kind": "odd_coherent", "alpha": 1.0},
                               {"N": 2, "response": {"kind": "nabs",
                                                     "n0": n0}}, capsys)
        assert code == 2 and out.out == ""
        assert out.err == ("error: bad detector parameter: absorption order "
                           "must be an integer in [1, 100000]\n")

    def test_integral_floats_are_integers(self, capsys):
        code, out = self.stats(
            {"kind": "fock", "n": 2.0},
            {"N": 4.0, "response": {"kind": "power", "n0": 2.0}}, capsys)
        expected = main(["stats", "--state", '{"kind": "fock", "n": 2}',
                         "--detector", json.dumps(POWER2_N4)])
        assert code == expected == 0
        assert out.out == capsys.readouterr().out

    @pytest.mark.parametrize("state,detector", [
        ({"kind": "fock", "n": 100_000_001}, LINEAR4),
        ({"kind": "fock", "n": 1},
         {"N": 4, "response": {"kind": "power", "n0": 10**9}}),
    ], ids=["fock", "power"])
    def test_sizes_past_the_bound(self, state, detector, capsys):
        code, out = self.stats(state, detector, capsys)
        assert code == 2 and out.out == ""
        assert "100000" in out.err

    def test_bound_is_inclusive(self):
        from clickstats.detector import Power
        from clickstats.states import _MAX_CUTOFF, fock_distribution
        assert Power(_MAX_CUTOFF).n0 == _MAX_CUTOFF
        with pytest.raises(ValueError, match="100000"):
            Power(_MAX_CUTOFF + 1)
        with pytest.raises(ValueError, match="100000"):
            fock_distribution(_MAX_CUTOFF + 1)

    def test_memory_error_exits_two(self, monkeypatch, capsys):
        # stands in for a bank too large to allocate, without allocating
        import clickstats.cli as cli

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 25.0 GiB")
        monkeypatch.setattr(cli, "click_statistics", exhausted)
        code = main(["stats", "--state", FOCK1, "--detector", DET_N4])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: out of memory: Unable to allocate 25.0 GiB\n"


POWER2_N4 = {"N": 4, "response": {"kind": "power", "n0": 2}}
POWER3_N4 = {"N": 4, "response": {"kind": "power", "n0": 3}}


def _odd(alpha) -> str:
    return json.dumps({"kind": "odd_coherent", "alpha": alpha})


class TestSuperpositionCommands:
    """Coherent superpositions end in exit 0 with finite numbers, or in
    exit 2 or 3 with a message, quickly, whatever the amplitude."""

    def test_formal_statistics_near_1e97(self, capsys):
        # the assembly used to run at a fixed 240 bits and report a total
        # of 3.9e25 (exit 3); 1200 bits give c_4 = -1.914097e97
        code = main(["stats", "--state", _odd(4),
                     "--detector", json.dumps(POWER3_N4)])
        rows = read_csv(capsys.readouterr().out)
        assert code == 0
        assert float(rows[5][1]) == pytest.approx(-1.914097e97, rel=1e-6)

    @pytest.mark.parametrize("alpha", [6, 30])
    def test_beyond_float_range_is_rejected_quickly(self, alpha, capsys):
        # c_0 is near -1.4e1235 at alpha = 6; the series path gave up after
        # 1.5 s at alpha = 6 and ran past 30 s at alpha = 30
        start = time.perf_counter()
        code = main(["stats", "--state", _odd(alpha),
                     "--detector", json.dumps(POWER3_N4)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and elapsed < 2.0
        assert "inf" not in captured.out
        assert "float range" in captured.err

    def test_nabs_at_large_amplitude(self, capsys):
        # the series path raised OverflowError here (exit 1)
        code = main(["stats", "--state", _odd(6), "--detector",
                     '{"N": 8, "response": {"kind": "nabs", "n0": 3}}'])
        rows = read_csv(capsys.readouterr().out)
        assert code == 0
        assert float(rows[1][1]) == pytest.approx(8.232e-7, rel=1e-4)
        assert math.fsum(float(r[1]) for r in rows[1:]) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(0.0, 316.0), phase=st.floats(-math.pi, math.pi),
           N=st.integers(1, 8), response=st.one_of(
               st.fixed_dictionaries({"kind": st.just("linear"),
                                      "eta": st.floats(1e-3, 1.0)}),
               st.fixed_dictionaries({"kind": st.just("affine"),
                                      "eta": st.floats(1e-3, 1.0),
                                      "nu": st.floats(0.0, 5.0)}),
               st.fixed_dictionaries({"kind": st.just("power"),
                                      "n0": st.integers(1, 5)}),
               st.fixed_dictionaries({"kind": st.just("poly"),
                                      "coefficients": st.lists(
                                          st.floats(0.0, 2.0), min_size=1,
                                          max_size=4)}),
               st.fixed_dictionaries({"kind": st.just("nabs"),
                                      "n0": st.integers(1, 8)})))
    def test_exit_codes(self, r, phase, N, response):
        alpha = [r * math.cos(phase), r * math.sin(phase)]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["stats", "--state", _odd(alpha), "--detector",
                         json.dumps({"N": N, "response": response})])
        assert code in (0, 2, 3)
        if code == 0:
            values = [float(row[1]) for row in read_csv(out.getvalue())[1:]]
            assert len(values) == N + 1
            assert all(math.isfinite(v) for v in values)


# numbers a descriptor field may hold besides its valid range, or none
_BAD = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -1e300, "x",
                        None, [1.0]])
_MISSING = object()


@st.composite
def _field(draw, valid):
    """Mostly a valid value; else a bad one or none at all."""
    if draw(st.integers(0, 9)) < 8:
        return draw(valid)
    return draw(st.one_of(_BAD, st.just(_MISSING)))


def _descriptor(fixed, **fields):
    return st.fixed_dictionaries(
        {**{k: st.just(v) for k, v in fixed.items()},
         **{k: _field(v) for k, v in fields.items()}}).map(
        lambda d: {k: v for k, v in d.items() if v is not _MISSING})


# valid values stay where the commands are quick and small: |xi|^2 <= 0.95,
# nbar and |alpha|^2 <= 20, n0 <= 8, no nonzero poly coefficient below 1e-6
_STATES = st.one_of(
    _descriptor({"kind": "coherent"}, mean_photons=st.floats(0.0, 20.0)),
    _descriptor({"kind": "thermal"}, nbar=st.floats(0.0, 20.0)),
    _descriptor({"kind": "spats"}, nbar=st.floats(0.0, 20.0)),
    _descriptor({"kind": "fock"}, n=st.integers(0, 40)),
    _descriptor({"kind": "odd_coherent"}, alpha=st.one_of(
        st.floats(0.1, 4.4), st.lists(st.floats(-3.1, 3.1), min_size=2,
                                      max_size=2))),
    _descriptor({"kind": "tmsv"}, xi=st.one_of(
        st.floats(-0.97, 0.97), st.lists(st.floats(-0.68, 0.68), min_size=2,
                                         max_size=2))),
)
_RESPONSES = st.one_of(
    _descriptor({"kind": "linear"}, eta=st.floats(1e-3, 1.0)),
    _descriptor({"kind": "affine"}, eta=st.floats(1e-3, 1.0),
                nu=st.floats(0.0, 3.0)),
    _descriptor({"kind": "power"}, n0=st.integers(1, 8)),
    _descriptor({"kind": "poly"}, coefficients=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 2.0)), min_size=1,
        max_size=4)),
    _descriptor({"kind": "nabs"}, n0=st.integers(1, 8)),
)


@st.composite
def _model(draw):
    """(state, detectors): two banks for tmsv and one otherwise, mostly."""
    state = draw(_STATES)
    banks = 2 if state["kind"] == "tmsv" else 1
    if draw(st.integers(0, 9)) == 0:
        banks = 3 - banks
    dets = draw(st.lists(_descriptor({}, N=st.integers(1, 6),
                                     response=_RESPONSES),
                         min_size=banks, max_size=banks))
    return state, dets


class TestFuzzedDescriptors:
    """Every state kind and response, with valid values mixed with NaN,
    infinities, negatives, strings and missing fields, ends in exit 0
    with finite numbers, or in exit 2 or 3 with a message."""

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["stats", "witness"]), model=_model())
    def test_exit_codes(self, command, model):
        state, dets = model
        argv = [command, "--state", json.dumps(state)]
        for det in dets:
            argv += ["--detector", json.dumps(det)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert not re.search(r"\bnan\b", out.getvalue(), re.IGNORECASE)
        else:
            assert err.getvalue()


class TestGridBound:
    """A grid past _MAX_GRID_STEPS points is refused before it is built."""

    HUGE = "nbar=0:1:1000000000000000"

    def test_figure(self, tmp_path, capsys):
        code = main(["figure", "fig2", "--grid", self.HUGE,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "100000" in capsys.readouterr().err

    def test_witness(self, capsys):
        code = main(["witness", "--state", '{"kind": "thermal", "nbar": 1}',
                     "--detector", DET_N8, "--grid", self.HUGE])
        assert code == 2
        assert "100000" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["xi", "kind", "tol"])
    def test_witness_name_the_state_reads(self, name, capsys):
        # a name the thermal descriptor does not hold used to give rows
        # that all repeat the base state, with exit 0
        code = main(["witness", "--state", '{"kind": "thermal", "nbar": 1}',
                     "--detector", DET_N8, "--grid", f"{name}=0:3:4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: --grid {name!r}")

    def test_bound_is_inclusive(self):
        assert len(_parse_grid(f"t=0:1:{_MAX_GRID_STEPS}")[1]) == _MAX_GRID_STEPS
        with pytest.raises(ValueError, match="100000"):
            _parse_grid(f"t=0:1:{_MAX_GRID_STEPS + 1}")


class TestGridPoints:
    """A grid with a point that is not finite is refused before any point
    is computed: exit 2 with the grid named, nothing from numpy on stderr
    and no file written."""

    @pytest.mark.parametrize("name,grid", [
        ("fig4", "t=nan:1:3"), ("fig4", "t=0:inf:3"),
        ("fig4", "t=1e308:1e309:2"), ("fig4", "dt=-inf:0:2"),
        ("fig2", "nbar=-1.7e308:1.7e308:3")])
    def test_figure(self, name, grid, tmp_path, capsys):
        out = tmp_path / "figs"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["figure", name, "--grid", grid, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: grid {grid!r} has points that are not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["nbar=1:inf:3", "nbar=nan:1:1"])
    def test_witness(self, grid, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["witness", "--state", '{"kind": "thermal", "nbar": 1}',
                         "--detector", DET_N8, "--grid", grid])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: grid {grid!r} has points that are not finite\n")


class TestDescriptorNumbers:
    """A descriptor number is a JSON int or float: a string, bool or null
    exits 2 with the field named, where strings were parsed before."""

    @pytest.mark.parametrize("state,detector,field", [
        ({"kind": "thermal", "nbar": "3"}, LINEAR4, "nbar"),
        ({"kind": "thermal", "nbar": 1.0, "tol": "x"}, LINEAR4, "tol"),
        ({"kind": "fock", "n": 1, "tol": "1e-6"}, LINEAR4, "tol"),
        ({"kind": "odd_coherent", "alpha": True}, LINEAR4, "alpha"),
        ({"kind": "fock", "n": 1},
         {"N": 4, "response": {"kind": "linear", "eta": "0.5"}}, "eta"),
        ({"kind": "fock", "n": 1},
         {"N": 4, "response": {"kind": "affine", "eta": 0.5, "nu": False}},
         "nu"),
        ({"kind": "fock", "n": 1},
         {"N": 4, "response": {"kind": "poly", "coefficients": ["0", "1"]}},
         "coefficient"),
    ])
    def test_exit_two(self, state, detector, field, capsys):
        code = main(["stats", "--state", json.dumps(state),
                     "--detector", json.dumps(detector)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {field} must be a finite number")

    def test_two_mode_pair(self, capsys):
        det = json.dumps(LINEAR4)
        code = main(["stats", "--state", '{"kind": "tmsv", "xi": ["0.5", "0"]}',
                     "--detector", det, "--detector", det])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: xi must be")


def _child_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestEntryPoints:
    def test_python_dash_m(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "clickstats", "stats", "--state", FOCK1,
             "--detector", DET_N4],
            capture_output=True, text=True, timeout=60, env=_child_env())
        assert proc.returncode == 0
        assert main(["stats", "--state", FOCK1, "--detector", DET_N4]) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_formal_stats_note(self, capsys):
        power = '{"N": 4, "response": {"kind": "power", "n0": 2}}'
        # one photon never fires a two-photon absorber; the table itself
        # is unchanged and the note goes to standard error alone
        assert main(["stats", "--state", FOCK1, "--detector", power]) == 0
        formal = capsys.readouterr()
        assert formal.out == ("k,probability\n0,1.0\n1,0.0\n2,0.0\n"
                              "3,0.0\n4,0.0\n")
        assert len(formal.err.splitlines()) == 1
        assert "formal" in formal.err
        assert main(["stats", "--state", FOCK1, "--detector", DET_N4]) == 0
        assert capsys.readouterr().err == ""

    def test_linear_poly_of_slope_above_one_is_formal(self, capsys):
        # f(x) = 1.5 x has signed kernels: on Fock 5 and two diodes the
        # no-click expectations are (1 - 3s/4)^5 = 1, 1/1024, -1/32, so
        # c = (-1/32, 33/512, 495/512)
        poly = ('{"N": 2, "response": {"kind": "poly", '
                '"coefficients": [0, 1.5]}}')
        assert main(["stats", "--state", '{"kind": "fock", "n": 5}',
                     "--detector", poly]) == 0
        formal = capsys.readouterr()
        assert "formal" in formal.err
        rows = read_csv(formal.out)
        assert [float(r[1]) for r in rows[1:]] == [-1 / 32, 33 / 512,
                                                   495 / 512]
