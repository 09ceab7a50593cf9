import csv
import io
import json
import warnings

import numpy as np
import pytest

from nhrlc import CircuitParams, build_report, eigensystem
from nhrlc.cli import main

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze",),
            ("analyze", "--alpha", "1"),
            ("analyze", "--alpha", "1", "--omega0", "1", "--R", "1", "--L", "1", "--C", "1"),
            ("analyze", "--R", "1", "--L", "1"),
            ("analyze", "--alpha", "1", "--omega0", "-2"),
            ("analyze", "--alpha", "-2", "--omega0", "1"),  # outside loss/gain taxonomy
        ],
    )
    def test_invalid_parameters_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err


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
            if r["phase"] == "EP" or alpha <= -omega0:
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

    def test_single_method(self, capsys):
        code, out, err = run_cli(capsys, *self.BASE, "--method", "rk")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert {r[-1] for r in rows if r and r[-1] != "method"} == {"integrated"}
        assert "three-way" not in err

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
        assert "spectral vs rk" in err

    def test_nan_error_fails_the_run(self, capsys):
        # omega0*dt = 4 makes the RK route overflow to a NaN error
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run_cli(
                capsys, "evolve", "--alpha", "0.1", "--omega0", "1", "--i0", "1",
                "--v0", "0", "--L", "1", "--t-max", "2000", "--dt", "4",
            )
        assert code == 1
        assert "spectral vs rk: max error nan" in err
        assert err.strip().splitlines()[-1] == "three-way max error: nan"

    def test_overflow_is_warning_free(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(
                capsys, "evolve", "--alpha", "0.1", "--omega0", "1", "--i0", "1",
                "--v0", "0", "--L", "1", "--t-max", "2000", "--dt", "4",
            )
        assert code == 1
        assert not caught and "RuntimeWarning" not in err
        assert "spectral vs rk: max error nan at t=744 " in err

    def test_bad_grid_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE[:-1] + ["-0.5"])
        assert excinfo.value.code == 2


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

    def test_wrong_arity_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mequiv", "--matrix-a", "1", "0", "--matrix-b", "1", "0"])
        assert excinfo.value.code == 2
