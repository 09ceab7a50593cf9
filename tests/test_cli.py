import contextlib
import csv
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nhrlc import (
    CircuitParams, build_report, eigensystem, is_similar, m_equivalent, report, solve_intertwiners,
)
from nhrlc.cli import _linspace, main

from helpers import PAIR_KINDS, designed_pair, fresh_python, reference_sweep_csv

SQ2 = np.sqrt(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_reference_point_report(self, capsys):
        code, out, err = run_cli(
            capsys, "analyze", "--alpha", "0.70710678", "--omega0", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["input"]["phase"] == "BP"
        h = report["metric"]["similar_hamiltonian"]
        expected = 1j * np.array([[-SQ2, 1.0], [-1.0, 0.0]])
        got = np.array([[complex(v["re"], v["im"]) for v in row] for row in h])
        assert np.abs(got - expected).max() < 1e-6
        assert abs(report["equivalence"]["det"]["re"] + 1.0) < 1e-12

    def test_exceptional_point_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--alpha", "2", "--omega0", "2")
        assert code == 0
        report = json.loads(out)
        assert report["input"]["phase"] == "EP"
        assert report["spectral"]["self_orthogonality_residual"] < 1e-12
        assert report["metric"] is None
        assert report["pseudofermion"]["existence_violation"] is True
        assert "expm_vs_rk" in report["dynamics"]

    def test_component_values_and_pt_flag(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--R", "0", "--L", "1", "--C", "1")
        assert code == 0
        report = json.loads(out)
        assert report["pseudofermion"]["pt_symmetric"] is True
        assert report["input"]["resistance"] == 0.0

    def test_json_round_trips(self):
        result = build_report(CircuitParams.from_rates(1 / SQ2, 1.0))
        assert json.loads(json.dumps(result.report)) == result.report

    def test_exit_code_matches_violations(self, capsys):
        # just outside the EP band the eigenbasis is ill-conditioned and the
        # report must say so through the exit code
        code, _, err = run_cli(
            capsys, "analyze", "--alpha", repr(1.0 + 3e-11), "--omega0", "1"
        )
        assert code == (1 if "tolerance violation" in err else 0)

    def test_negative_numbers_in_exponent_form(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--R", "-4e-07", "--L", "1", "--C", "1")
        assert code in (0, 1), err
        report = json.loads(out)
        assert report["input"]["resistance"] == -4e-07
        assert report["input"]["alpha"] == -2e-07

    @pytest.mark.parametrize("alpha, phase", [("-2", "UP"), ("-1.5", "UP"), ("-1", "EP")])
    def test_gain_side_beyond_the_broken_phase(self, capsys, alpha, phase):
        code, out, err = run_cli(capsys, "analyze", "--alpha", alpha, "--omega0", "1")
        assert code == 0 and err == ""
        assert json.loads(out)["input"]["phase"] == phase

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze",),
            ("analyze", "--alpha", "1"),
            ("analyze", "--alpha", "1", "--omega0", "1", "--R", "1", "--L", "1", "--C", "1"),
            ("analyze", "--R", "1", "--L", "1"),
            ("analyze", "--alpha", "1", "--omega0", "-2"),
            ("analyze", "--alpha", "9e307", "--omega0", "1"),  # 2*alpha overflows
            ("analyze", "--alpha", "-1.7e308", "--omega0", "1"),
            ("analyze", "--R", "1e308", "--L", "0.5", "--C", "1"),
        ],
    )
    def test_invalid_parameters_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "params",
        [("--alpha", "1", "--omega0", "1e200"), ("--R", "1", "--L", "1e-160", "--C", "1e-160")],
    )
    def test_omega0_whose_square_overflows_exit_2_with_one_line(self, capsys, params):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", *params])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nhrlc: error: omega0 must be at most 1.341e+154")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "params",
        [
            ("--alpha", "5e-201", "--omega0", "1e-200"),  # BP: S_psi overflows in outer
            ("--alpha", "1e-199", "--omega0", "1e-200"),  # UP
            ("--alpha", "-5e-201", "--omega0", "1e-200"),  # gain
            ("--R", "1", "--L", "1e200", "--C", "1e200"),
            ("--alpha", "5e153", "--omega0", "1e154"),  # A @ S_phi overflows
            ("--alpha", "2e154", "--omega0", "1e154"),
        ],
    )
    def test_metric_overflow_exit_2_with_one_line_and_no_warning(self, capsys, params):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", *params])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "nhrlc: error: matrix entries must be finite\n"


class TestSweep:
    @staticmethod
    def rows(out):
        return list(csv.DictReader(io.StringIO(out)))

    def test_coalescence_within_one_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--omega0", "1", "--alpha-min", "0",
            "--alpha-max", "2", "--steps", "201",
        )
        assert code == 0
        rows = self.rows(out)
        assert len(rows) == 201
        gaps = [
            abs(
                complex(float(r["re_lambda_plus"]), float(r["im_lambda_plus"]))
                - complex(float(r["re_lambda_minus"]), float(r["im_lambda_minus"]))
            )
            for r in rows
        ]
        best = float(rows[int(np.argmin(gaps))]["alpha"])
        assert abs(best - 1.0) <= 0.01 + 1e-12
        imag_gap = [
            abs(float(r["im_lambda_plus"]) - float(r["im_lambda_minus"])) for r in rows
        ]
        for r, g in zip(rows, imag_gap):
            if float(r["alpha"]) <= 1.0:
                assert g < 1e-10
            if float(r["alpha"]) >= 1.05:
                assert g > 0.1
        assert {r["phase"] for r in rows} == {"BP", "EP", "UP"}

    def test_branches_continuous(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--omega0", "1", "--alpha-min", "0.5",
            "--alpha-max", "1.5", "--steps", "101",
        )
        rows = self.rows(out)
        lam_p = [complex(float(r["re_lambda_plus"]), float(r["im_lambda_plus"])) for r in rows]
        lam_m = [complex(float(r["re_lambda_minus"]), float(r["im_lambda_minus"])) for r in rows]
        for seq in (lam_p, lam_m):
            jumps = [abs(b - a) for a, b in zip(seq, seq[1:])]
            assert max(jumps) < 0.35  # sqrt branch point allows ~sqrt(dalpha)

    def test_minimal_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--omega0", "1", "--alpha-min", "0",
            "--alpha-max", "0.5", "--steps", "2",
        )
        assert code == 0
        assert len(self.rows(out)) == 2

    def test_overdamped_range_purely_imaginary(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--omega0", "1", "--alpha-min", "1.5",
            "--alpha-max", "2", "--steps", "40",
        )
        rows = self.rows(out)
        assert all(r["phase"] == "UP" for r in rows)
        for r in rows:
            assert abs(float(r["re_lambda_plus"])) < 1e-12
            assert abs(float(r["re_lambda_minus"])) < 1e-12

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--steps", "1", "--steps must be at least 2"),
            ("--omega0", "0", "--omega0 must be positive"),
        ],
    )
    def test_bad_grid_exit_2_with_one_line(self, capsys, flag, value, message):
        argv = {"--omega0": "1", "--alpha-min": "0", "--alpha-max": "2", "--steps": "5"}
        argv[flag] = value
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *(token for pair in argv.items() for token in pair)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"nhrlc: error: {message}\n"

    def test_bad_range_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--omega0", "1", "--alpha-min", "2",
                  "--alpha-max", "1", "--steps", "10"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "bounds", [("--alpha-min", "-inf"), ("--alpha-max", "inf"), ("--omega0", "inf")]
    )
    def test_non_finite_bounds_exit_2(self, capsys, bounds):
        argv = {"--omega0": "1", "--alpha-min": "0", "--alpha-max": "2", "--steps": "5"}
        argv[bounds[0]] = bounds[1]
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *(token for pair in argv.items() for token in pair)])
        assert excinfo.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "omega0, alpha_min, alpha_max", [(1.0, -3.0, 3.0), (1.0, -2.0, 3.0), (1e4, 0.0, 3e4)]
    )
    def test_labels_are_the_eigensystem_labels(self, capsys, omega0, alpha_min, alpha_max):
        _, out, _ = run_cli(
            capsys, "sweep", "--omega0", repr(omega0), "--alpha-min", repr(alpha_min),
            "--alpha-max", repr(alpha_max), "--steps", "601",
        )
        checked = 0
        for r in self.rows(out):
            alpha = float(r["alpha"])
            if r["phase"] == "EP":
                continue
            sys_ = eigensystem(CircuitParams.from_rates(alpha, omega0))
            assert complex(float(r["re_lambda_plus"]), float(r["im_lambda_plus"])) == sys_.lambda_plus
            assert complex(float(r["re_lambda_minus"]), float(r["im_lambda_minus"])) == sys_.lambda_minus
            checked += 1
        assert checked > 300

    def test_exceptional_points_are_warning_free(self, capsys):
        # the grid hits alpha = -omega0 and alpha = omega0 exactly
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "sweep", "--omega0", "1", "--alpha-min", "-2",
                "--alpha-max", "2", "--steps", "5",
            )
        assert code == 0 and not caught and not err
        rows = self.rows(out)
        assert [r["alpha"] for r in rows] == ["-2.0", "-1.0", "0.0", "1.0", "2.0"]
        assert rows[3]["re_lambda_plus"] == rows[3]["re_lambda_minus"] == "0.0"
        assert "-0.0" not in out

    def test_gain_rows_are_labelled_by_abs_alpha(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--omega0", "1", "--alpha-min", "-2", "--alpha-max", "2", "--steps", "9"
        )
        # alpha = -2, -1.5, ..., 2: the gain side mirrors the loss side
        phases = [r["phase"] for r in self.rows(out)]
        assert phases == ["UP", "UP", "EP", "BP", "BP", "BP", "EP", "UP", "UP"]


    @pytest.mark.parametrize(
        "omega0, alpha_min, alpha_max, steps",
        [
            (1.0, -2.0, 3.0, 1025),  # one row past a block
            (1.0, -2.0, 3.0, 20001),  # hits alpha = +-1 exactly, 20 blocks
            (1.0, -1.0, 1.0, 3),
            (1.0, 1.0 - 2e-12, 1.0 + 2e-12, 9),  # rows inside the EP band
            (1e4, 0.0, 3e4, 601),  # hits alpha = omega0 = 1e4
            (1.0, -1e300, 1e300, 5),
        ],
    )
    def test_bytes_equal_the_row_writer(self, capsys, omega0, alpha_min, alpha_max, steps):
        code, out, err = run_cli(
            capsys, "sweep", "--omega0", repr(omega0), "--alpha-min", repr(alpha_min),
            "--alpha-max", repr(alpha_max), "--steps", str(steps),
        )
        assert code == 0 and err == ""
        assert out == reference_sweep_csv(omega0, alpha_min, alpha_max, steps)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.floats(-1e308, 1e308), st.floats(-1e308, 1e308), st.integers(2, 300))
    @example(0.0, 1.0, 2)
    @example(-8.9e307, 8.9e307, 2)  # huge magnitudes, a finite span
    @example(-8.9e307, 8.9e307, 1001)
    @example(0.0, 5e-324, 5)  # step = 5e-324/4 underflows to 0
    @example(-1e-320, 1e-320, 20001)
    @example(1.0 - 2e-12, 1.0 + 2e-12, 9)
    def test_grid_is_linspace_bitwise(self, start, stop, num):
        start, stop = sorted((start, stop))
        assume(start < stop and np.isfinite(stop - start))
        want = np.linspace(start, stop, num).tolist()
        assert [float.hex(a) for a in _linspace(start, stop, num)] == list(map(float.hex, want))

    def test_ep_band_rows_are_labelled(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--omega0", "1", "--alpha-min", repr(1.0 - 2e-12),
            "--alpha-max", repr(1.0 + 2e-12), "--steps", "9",
        )
        assert [r["phase"] for r in self.rows(out)] == ["BP"] * 2 + ["EP"] * 4 + ["UP"] * 3

    def test_overflowing_range_exit_2_with_one_line(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SystemExit) as excinfo:
                main(["sweep", "--omega0", "1", "--alpha-min", "-1.7e308",
                      "--alpha-max", "1.7e308", "--steps", "3"])
        assert excinfo.value.code == 2 and not caught
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "nhrlc: error: --alpha-max minus --alpha-min must be finite\n"

    @pytest.mark.parametrize("omega0, alpha_min, alpha_max", [
        ("1", "-1.7e308", "0"), ("1e308", "0", "1.7e308"), ("5e-324", "0", "1e-300"),
    ])
    def test_non_finite_eigenvalue_exit_2_with_one_line(self, capsys, omega0, alpha_min, alpha_max):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SystemExit) as excinfo:
                main(["sweep", "--omega0", omega0, "--alpha-min", alpha_min,
                      "--alpha-max", alpha_max, "--steps", "3"])
        assert excinfo.value.code == 2 and not caught
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "nhrlc: error: an eigenvalue is not finite between --alpha-min and --alpha-max\n"
        )

    def test_overflow_outside_the_eigenvalues_is_warning_free(self, capsys):
        # only the unprinted n_phi products overflow on this range
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "sweep", "--omega0", "1", "--alpha-min", "-8.5e307",
                "--alpha-max", "0", "--steps", "3",
            )
        assert code == 0 and err == "" and not caught
        rows = self.rows(out)
        assert len(rows) == 3
        assert all(np.isfinite(float(v)) for r in rows for k, v in r.items() if k != "phase")

    def test_finite_eigenvalues_where_omega0_plus_alpha_overflows(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "sweep", "--omega0", "1e308", "--alpha-min", "0",
                "--alpha-max", "8.5e307", "--steps", "3",
            )
        assert code == 0 and err == "" and not caught
        rows = self.rows(out)
        assert [r["phase"] for r in rows] == ["BP"] * 3
        assert all(np.isfinite(float(v)) for r in rows for k, v in r.items() if k != "phase")


class TestEvolve:
    BASE = [
        "evolve", "--alpha", "0.70710678", "--omega0", "1", "--i0", "1",
        "--v0", "0", "--L", "1", "--t-max", "2", "--dt", "0.01",
    ]

    def test_all_methods_and_summary(self, capsys):
        code, out, err = run_cli(capsys, *self.BASE)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        methods = {r[-1] for r in rows if r and r[-1] != "method"}
        assert methods == {"closed-form", "spectral", "integrated"}
        assert "closed vs spectral" in err
        assert "three-way max error" in err.strip().splitlines()[-1]

    @pytest.mark.parametrize(
        "alpha, omega0",
        [
            ("0.5", "1"), ("2", "1"), ("1", "1"), ("-0.3", "1"), ("15", "50"),
            ("0.01", "0.05"), ("100", "1"),
        ],
        ids=["BP", "UP", "EP", "gain-BP", "BP-omega0-50", "BP-omega0-0.05", "UP-zeta-100"],
    )
    def test_pairs_are_the_analyze_pairs(self, capsys, monkeypatch, alpha, omega0):
        with monkeypatch.context() as patch:  # every report gate then states its bound
            patch.setattr(report, "exceeds", lambda value, bound: True)
            params = CircuitParams.from_rates(float(alpha), float(omega0))
            violations = build_report(params).violations
        pair = r"(\w+)_vs_(\w+) = (\S+) exceeds (\S+)"
        want = [m.groups() for line in violations if (m := re.fullmatch(pair, line))]
        code, _, err = run_cli(
            capsys, "evolve", "--alpha", alpha, "--omega0", omega0, "--i0", "1", "--v0", "0",
            "--L", "1", "--t-max", "10", "--dt", "0.01",
        )
        assert code == 0, err
        pair = r"(\w+) vs (\w+): max error (\S+) at \S+ \(tolerance ([^,]+), ok\)"
        got = [re.fullmatch(pair, line).groups() for line in err.splitlines()[:-1]]
        assert want and got == want

    def test_coarse_samples_keep_the_rk_step(self, capsys):
        # --dt spaces the samples only; the state starts at (1, -0.1) and decays, so scale 1
        code, _, err = run_cli(
            capsys, "evolve", "--alpha", "0.1", "--omega0", "1", "--i0", "1",
            "--v0", "0", "--L", "1", "--t-max", "2000", "--dt", "4",
        )
        assert code == 0, err
        rk_lines = [line for line in err.splitlines() if " vs rk:" in line]
        assert len(rk_lines) == 2
        assert all(float(re.search(r"tolerance ([^,]+),", line)[1]) <= 1e-6 for line in rk_lines)

    def test_step_is_chosen_in_seconds(self, capsys):
        # omega0*dt underflows to 0, so the step must not be formed as that product
        code, out, err = run_cli(
            capsys, "evolve", "--alpha", "0", "--omega0", "1e-200", "--i0", "1",
            "--v0", "0", "--L", "1", "--t-max", "1e-199", "--dt", "1e-200",
        )
        assert code == 0, err
        assert out.strip().splitlines()[-1] == "1e-199,1.0,0.0,0.0,0.0,integrated"
        assert "closed vs rk: max error 0.000e+00 at t=0 (tolerance 1.0e-09, ok)" in err

    def test_single_method(self, capsys):
        code, out, err = run_cli(capsys, *self.BASE, "--method", "rk")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert {r[-1] for r in rows if r and r[-1] != "method"} == {"integrated"}
        assert "three-way" not in err

    @pytest.mark.parametrize(
        "alpha, method",
        [("0.5", "closed"), ("0.5", "spectral"), ("0.5", "rk"), ("2", "spectral"),
         ("2", "rk"), ("1", "spectral"), ("1", "rk"), ("-0.3", "rk")],
        ids=["BP-closed", "BP-spectral", "BP-rk", "UP-spectral", "UP-rk", "EP-spectral",
             "EP-rk", "gain-BP-rk"],
    )
    def test_single_method_block_is_its_block_of_all(self, capsys, alpha, method):
        argv = ["evolve", "--alpha", alpha, "--omega0", "1", "--i0", "1", "--v0", "0.5",
                "--L", "2", "--t-max", "10", "--dt", "0.01"]
        code, out, err = run_cli(capsys, *argv, "--method", method)
        assert code == 0 and err == ""
        _, out_all, _ = run_cli(capsys, *argv)
        blocks = ["t," + block for block in out_all.split("t,")[1:]]
        assert out in blocks and len(blocks) == (3 if alpha in ("0.5", "-0.3") else 2)

    @pytest.mark.parametrize("method", ["all", "closed", "spectral", "rk"])
    def test_one_sample_grid(self, capsys, method):
        # t_max below dt/2 rounds to a grid of t = 0 alone, with no spacing to step at
        code, out, err = run_cli(
            capsys, "evolve", "--alpha", "0.5", "--omega0", "1", "--i0", "1", "--v0", "0",
            "--L", "1", "--t-max", "0.001", "--dt", "1", "--method", method,
        )
        assert code == 0, err
        rows = [r for r in csv.reader(io.StringIO(out)) if r[0] != "t"]
        assert len(rows) == (3 if method == "all" else 1)
        assert all(r[0] == "0.0" and float(r[1]) == 1.0 for r in rows)

    def test_closed_method_outside_broken_phase(self, capsys):
        code, _, err = run_cli(
            capsys, "evolve", "--alpha", "2", "--omega0", "1", "--i0", "1",
            "--v0", "0", "--L", "1", "--t-max", "1", "--dt", "0.01",
            "--method", "closed",
        )
        assert code == 2
        assert "broken phase" in err

    def test_exceptional_point_uses_expm_fallback(self, capsys):
        code, out, err = run_cli(
            capsys, "evolve", "--alpha", "2", "--omega0", "2", "--i0", "1",
            "--v0", "0", "--L", "1", "--t-max", "1", "--dt", "0.01",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        methods = {r[-1] for r in rows if r and r[-1] != "method"}
        assert methods == {"expm", "integrated"}
        assert "expm vs rk" in err

    def test_nan_error_fails_the_run(self, capsys):
        # the gain state grows as e^{0.5 t}: every route overflows, so every error is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run_cli(
                capsys, "evolve", "--alpha", "-0.5", "--omega0", "1", "--i0", "1",
                "--v0", "0", "--L", "1", "--t-max", "2000", "--dt", "4",
            )
        assert code == 1
        assert "spectral vs rk: max error nan" in err
        assert err.strip().splitlines()[-1] == "three-way max error: nan"

    def test_single_route_nan_fails_the_run(self, capsys):
        # no agreement gate on one route: its non-finite states fail the run
        code, out, err = run_cli(
            capsys, "evolve", "--alpha", "-0.5", "--omega0", "1", "--i0", "1",
            "--v0", "0", "--L", "1", "--t-max", "2000", "--dt", "4", "--method", "rk",
        )
        assert code == 1
        assert "inf" in out
        assert err.strip().splitlines() == ["rk: state not finite from t=1424"]

    def test_overflow_is_warning_free(self, capsys):
        # the error is placed at the first non-finite exact state; at the gain EP
        # the expm fallback overflows
        for alpha, line in [
            ("-0.5", "closed vs spectral: max error nan at t=1420 "),
            ("-1", "expm vs rk: max error nan at t=704 "),
        ]:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, _, err = run_cli(
                    capsys, "evolve", "--alpha", alpha, "--omega0", "1", "--i0", "1",
                    "--v0", "0", "--L", "1", "--t-max", "2000", "--dt", "4",
                )
            assert code == 1, alpha
            assert not caught and "RuntimeWarning" not in err, alpha
            assert line in err, alpha

    def test_refused_route_exit_2_with_one_line(self, capsys):
        # the closed form covers the broken phase only; (-2, 1) is gain UP
        code, out, err = run_cli(
            capsys, "evolve", "--alpha", "-2", "--omega0", "1", "--i0", "1",
            "--v0", "0", "--L", "1", "--t-max", "1", "--dt", "0.1", "--method", "closed",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("nhrlc evolve: error: ") and err.count("\n") == 1

    def test_growing_gain_state_has_a_relative_route_bound(self, capsys):
        # grows as e^{0.84 t}; its closed vs spectral error 1.8e-10 is about 4e-15 relative
        code, _, err = run_cli(
            capsys, "evolve", "--alpha", "-0.8389582571259493", "--omega0", "1.8063160530177547",
            "--i0", "1.982508228877716", "--v0", "1.1702659309338346",
            "--L", "0.12960625548034518", "--t-max", "10", "--dt", "0.001",
        )
        assert code == 0, err
        assert "EXCEEDS" not in err

    def test_closed_method_where_omega0_squared_underflows(self, capsys):
        # BP; omega0^2 - alpha^2 underflows to 0, its factors do not
        code, out, err = run_cli(
            capsys, "evolve", "--alpha", "5e-171", "--omega0", "1e-170", "--i0", "1",
            "--v0", "0", "--L", "1", "--t-max", "1", "--dt", "0.1", "--method", "closed",
        )
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11 and all(r["method"] == "closed-form" for r in rows)
        assert float(rows[-1]["re_x1"]) == pytest.approx(1.0, rel=1e-12)

    def test_bad_grid_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE[:-1] + ["-0.5"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("alpha", ["-2", "-1e200"])
    def test_closed_method_for_gain_beyond_omega0_exit_2_with_one_line(self, capsys, alpha):
        code, out, err = run_cli(
            capsys, "evolve", "--alpha", alpha, "--omega0", "1", "--i0", "1",
            "--v0", "0", "--L", "1", "--t-max", "1", "--dt", "0.1", "--method", "closed",
        )
        assert code == 2
        assert out == ""
        assert err == "nhrlc evolve: error: closed-form evolution covers the broken phase only\n"

    def test_omega0_whose_square_overflows_exit_2_with_one_line(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["evolve", "--alpha", "1", "--omega0", "1e200", *self.BASE[5:]])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nhrlc: error: omega0 must be at most 1.341e+154")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "t_max, dt",
        [("inf", "0.01"), ("1e400", "0.01"), ("2", "inf"), ("nan", "0.01"), ("2", "nan")],
    )
    def test_non_finite_time_exit_2_with_one_line(self, capsys, t_max, dt):
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE[:-4] + ["--t-max", t_max, "--dt", dt])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "nhrlc: error: t_max and dt must be finite\n"

    def test_overflowing_sample_count_exit_2_with_one_line(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE[:-4] + ["--t-max", "1e300", "--dt", "1e-300"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "nhrlc: error: t_max / dt must be finite\n"

    @pytest.mark.parametrize("method", ["rk", "all"])
    def test_overflowing_rk_substep_count_exit_2_with_one_line(self, capsys, method):
        # near MAX_ALPHA the RK step is 1e-3/(2*alpha), about 5.6e-312 s, so one 0.1 s
        # interval needs more substeps than the largest float; the grid itself is fine
        argv = ["evolve", "--alpha", "8.9e307", "--omega0", "1", "--i0", "1", "--v0", "0",
                "--L", "1", "--t-max", "1", "--dt", "0.1", "--method", method]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "nhrlc evolve: error: rk route: RK4 substep count overflows "
            "(interval / step must be finite)\n"
        )


class TestMequiv:
    @staticmethod
    def flat(matrix):
        out = []
        for row in matrix:
            for v in row:
                out += [str(complex(v).real), str(complex(v).imag)]
        return out

    def run(self, capsys, mat_a, mat_b):
        code, out, _ = run_cli(
            capsys, "mequiv", "--matrix-a", *self.flat(mat_a), "--matrix-b", *self.flat(mat_b)
        )
        assert code == 0
        return json.loads(out)

    def test_identity_and_shear(self, capsys):
        verdict = self.run(capsys, np.eye(2), [[1, 1], [0, 1]])
        assert verdict == {"m_equivalent": True, "similar": False, "intertwiner_dim": 2}

    def test_rank_deficient_pair_matched(self, capsys):
        verdict = self.run(capsys, [[2, 3], [0, -1]], [[1, 2], [1, 0]])
        assert verdict["m_equivalent"] is True
        assert verdict["intertwiner_dim"] >= 1

    def test_rank_deficient_pair_mismatched(self, capsys):
        verdict = self.run(capsys, [[2, 3], [0, 0]], [[1, 2], [1, 0]])
        assert verdict["m_equivalent"] is False
        assert verdict["intertwiner_dim"] >= 1

    def test_complex_entries_parse(self, capsys):
        h = 1j * np.array([[0, 1], [-1, -SQ2]])
        verdict = self.run(capsys, h, h)
        assert verdict["m_equivalent"] is True and verdict["similar"] is True

    def test_negative_entries_in_exponent_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "mequiv", "--matrix-a", "1", "-1e-3", "0", "0", "0", "0", "-2.5E+0", "0",
            "--matrix-b", "1", "-1e-3", "0", "0", "0", "0", "-2.5E+0", "0",
        )
        assert code == 0
        assert json.loads(out)["m_equivalent"] is True

    def test_huge_entries_get_a_verdict(self, capsys):
        big = 1e200 * np.eye(2)
        verdict = self.run(capsys, big, big)
        assert verdict == {"m_equivalent": True, "similar": True, "intertwiner_dim": 4}

    def test_entries_near_overflow_keep_the_intertwiners(self, capsys):
        code, out, _ = run_cli(
            capsys, "mequiv", "--matrix-a", "1.5e308", "1.5e308", "0", "0", "0", "0", "1", "0",
            "--matrix-b", "1.5e308", "1.5e308", "0", "0", "0", "0", "1", "0",
        )
        assert code == 0
        assert json.loads(out) == {"m_equivalent": True, "similar": True, "intertwiner_dim": 2}

    def test_loss_and_gain_generators_at_the_exceptional_point(self, capsys):
        # H and H^dag at omega0 = alpha = 3e4: entries 1 and 9e8, roots -3e4i and 3e4i
        code, out, _ = run_cli(
            capsys, "mequiv", "--matrix-a", "0", "0", "0", "1", "0", "-9e8", "0", "-6e4",
            "--matrix-b", "0", "0", "0", "9e8", "0", "-1", "0", "6e4",
        )
        assert code == 0
        assert json.loads(out) == {"m_equivalent": False, "similar": False, "intertwiner_dim": 0}

    # entries whose 1e+-200 scaled pairs stay finite, with both signs of zero
    ENTRIES = st.builds(
        lambda re, im, k: complex(re, im) * 10.0 ** k,
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1, 1)),
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1, 1)),
        st.integers(-60, 60),
    )
    MATRICES = st.lists(ENTRIES, min_size=4, max_size=4).map(lambda v: np.reshape(v, (2, 2)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.sampled_from(PAIR_KINDS),
        MATRICES, MATRICES, st.floats(-2, 2), st.floats(-2, 2), st.sampled_from([-200, 0, 200]),
    )
    def test_the_verdict_is_the_librarys(self, kind, m, n, t, u, k):
        a, b = (10.0 ** k * x for x in designed_pair(kind, m, n, t, u))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["mequiv", "--matrix-a", *self.flat(a), "--matrix-b", *self.flat(b)])
        verdict = {
            "m_equivalent": m_equivalent(a, b),
            "similar": is_similar(a, b),
            "intertwiner_dim": len(solve_intertwiners(a, b)),
        }
        assert (code, out.getvalue(), err.getvalue()) == (0, json.dumps(verdict) + "\n", "")

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_entry_exit_2_with_one_line(self, capsys, entry):
        for at in (0, 7, 8, 15):  # first and last number of each matrix
            numbers = ["1", "0", "0", "0", "0", "0", "1", "0"] * 2
            numbers[at] = entry
            with pytest.raises(SystemExit) as excinfo:
                main(["mequiv", "--matrix-a", *numbers[:8], "--matrix-b", *numbers[8:]])
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "nhrlc: error: matrix entries must be finite\n"

    def test_wrong_arity_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mequiv", "--matrix-a", "1", "0", "--matrix-b", "1", "0"])
        assert excinfo.value.code == 2


# numpy refuses these grids outright: 1e12 samples are 7.3 TiB of float64
@pytest.mark.parametrize("argv", [
    ["sweep", "--omega0", "1", "--alpha-min", "0", "--alpha-max", "1",
     "--steps", "1000000000000"],
    ["evolve", "--alpha", "0.3", "--omega0", "1", "--i0", "1", "--v0", "0", "--L", "1",
     "--t-max", "1e-298", "--dt", "1e-310"],
], ids=["sweep", "evolve"])
def test_grid_too_large_to_allocate_exit_2_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nhrlc: error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("args, layers", [
    (["-m", "nhrlc.cli", "sweep", "--omega0", "1", "--alpha-min", "0", "--alpha-max", "2",
      "--steps", "5"], {"circuit", "errors", "spectral"}),
    (["-m", "nhrlc.cli", "mequiv", "--matrix-a", "1", "0", "0", "0", "0", "0", "1", "0",
      "--matrix-b", "1", "0", "1", "0", "0", "0", "1", "0"], {"mequiv"}),
    (["-m", "nhrlc.cli", "evolve", "--alpha", "0.3", "--omega0", "1", "--i0", "1", "--v0", "0",
      "--L", "1", "--t-max", "1", "--dt", "0.5"],
     {"circuit", "cxmat", "errors", "spectral", "dynamics"}),
    (["-m", "nhrlc.cli", "analyze", "--alpha", "0.3", "--omega0", "1"],
     {"circuit", "cxmat", "errors", "spectral", "dynamics", "mequiv", "metric",
      "pseudofermion", "report"}),
    (["-c", "import nhrlc"], set()),
    (["-c", "import nhrlc.spectral"], {"circuit", "errors", "spectral"}),
], ids=["sweep", "mequiv", "evolve", "analyze", "import nhrlc", "import nhrlc.spectral"])
def test_a_subcommand_loads_only_the_layers_it_runs(args, layers):
    stderr = fresh_python("-X", "importtime", *args).stderr
    assert set(re.findall(r"\|\s+nhrlc\.(\w+)$", stderr, re.M)) == layers
    # cxmat and the layers over it import numpy at the top; circuit, errors, spectral
    # and mequiv import it only inside the functions that form arrays
    loads_numpy = bool(re.search(r"\|\s+numpy(\.\w+)*$", stderr, re.M))
    assert loads_numpy == ("cxmat" in layers)
    if layers == {"mequiv"}:  # its result records are NamedTuples, not dataclasses
        assert not re.search(r"\|\s+(dataclasses|inspect)$", stderr, re.M)
