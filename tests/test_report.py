import numpy as np
import pytest

from nhrlc import (
    CircuitParams,
    InitialData,
    Trajectory,
    build_report,
    evolve_closed_form,
    evolve_integrated,
    evolve_spectral,
    uniform_grid,
)
from nhrlc import dynamics, pseudofermion, report
from nhrlc.dynamics import rk_tolerance, route_agreement
from nhrlc.errors import TOLERANCES, ExistenceViolation, exceeds

BP, UP, EP = (CircuitParams.from_rates(alpha, 1.0) for alpha in (0.5, 1.5, 1.0))
REST = InitialData(i0=1.0, v0=0.0, inductance=1.0)


class TestGates:
    def test_nan_residual_is_a_violation(self, monkeypatch):
        # omega0*RK_STEP = 4 is past RK4's stability limit: the RK route
        # overflows to inf and so do its agreement residuals
        monkeypatch.setattr(dynamics, "RK_STEP", 4.0)
        with np.errstate(over="ignore", invalid="ignore"):
            result = build_report(CircuitParams.from_rates(0.1, 1.0), t_max=2000.0, dt=4.0)
        dyn = result.report["dynamics"]
        assert dyn["rk_step"] == 4.0
        assert dyn["closed_vs_rk"] == dyn["spectral_vs_rk"] == np.inf
        flagged = {line.split(" = ")[0] for line in result.violations}
        assert flagged == {"closed_vs_rk", "spectral_vs_rk"}

    @pytest.mark.parametrize(
        "kwargs", [{"t_max": np.inf}, {"dt": np.nan}], ids=["inf-t_max", "nan-dt"],
    )
    def test_non_finite_time_inputs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            build_report(CircuitParams.from_rates(0.5, 1.0), **kwargs)

    def test_overflowing_gain_trajectory_is_warning_free(self):
        # e^{99.8 t} overflows on [0, 10]: the suite turns any RuntimeWarning
        # into an error, so this fails if a route lets one out
        result = build_report(CircuitParams.from_rates(-99.83622419419237, 423.396504510819))
        flagged = {line.split(" = ")[0] for line in result.violations}
        assert {"closed_vs_spectral", "closed_vs_rk", "spectral_vs_rk"} <= flagged

    def test_route_agreement_bounds(self):
        params = CircuitParams.from_rates(0.5, 1.0)
        grid = uniform_grid(1.0, 0.1)
        init = InitialData(i0=1.0, v0=0.0, inductance=1.0)
        closed = evolve_closed_form(params, init, grid)
        routes = {"closed": closed, "spectral": evolve_spectral(params, init, grid), "rk": closed}
        pairs = [(a, b, bound) for a, b, _, _, bound in route_agreement(routes, 1e-2)]
        assert pairs == [
            ("closed", "spectral", TOLERANCES["closed_vs_spectral"]),
            ("closed", "rk", rk_tolerance(1e-2)),
            ("spectral", "rk", rk_tolerance(1e-2)),
        ]

    @pytest.mark.parametrize(
        "ratios",
        [-np.geomspace(1e-3, 0.999, 40), -np.geomspace(1.001, 10.0, 40)],
        ids=["gain-BP", "gain-UP"],
    )
    def test_gain_side_grid_has_no_violation(self, ratios):
        for ratio in ratios:
            result = build_report(CircuitParams.from_rates(ratio, 1.0))
            assert result.violations == [], ratio

    def test_gain_exceptional_point_gives_an_ep_report(self):
        result = build_report(CircuitParams.from_rates(-1.0, 1.0))
        assert result.violations == []
        assert result.report["input"]["phase"] == "EP" and result.report["metric"] is None
        assert "expm_vs_rk" in result.report["dynamics"]

    def test_route_bound_scales_with_the_exact_state(self):
        # gain BP: the state grows as e^{0.8 t}, so an absolute bound would fail
        params = CircuitParams.from_rates(-0.8, 1.0)
        grid = uniform_grid(10.0, 0.01)
        closed = evolve_closed_form(params, REST, grid)
        size = np.abs(closed.states).max()
        assert size > 1e3
        rk = evolve_integrated(params, REST, grid)
        routes = {"closed": closed, "spectral": evolve_spectral(params, REST, grid), "rk": rk}
        pairs = [(a, b, bound) for a, b, _, _, bound in route_agreement(routes, 1e-3)]
        assert pairs == [
            ("closed", "spectral", TOLERANCES["closed_vs_spectral"] * size),
            ("closed", "rk", rk_tolerance(1e-3) * size),
            ("spectral", "rk", rk_tolerance(1e-3) * np.abs(routes["spectral"].states).max()),
        ]
        assert not any(exceeds(err, bound) for *_, err, _, bound in route_agreement(routes, 1e-3))

    def test_rk_states_off_by_a_relative_1e_5_fail_at_a_growing_gain_point(self):
        params = CircuitParams.from_rates(-0.8, 1.0)
        grid = uniform_grid(10.0, 0.01)
        rk = evolve_integrated(params, REST, grid)
        routes = {
            "closed": evolve_closed_form(params, REST, grid),
            "spectral": evolve_spectral(params, REST, grid),
            "rk": Trajectory(rk.times, rk.states * (1 + 1e-5), rk.method),
        }
        verdicts = [exceeds(err, bound) for *_, err, _, bound in route_agreement(routes, 1e-3)]
        assert verdicts == [False, True, True]  # closed-spectral, closed-rk, spectral-rk

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_route_keeps_the_absolute_bound_and_fails(self, bad):
        params = CircuitParams.from_rates(-0.8, 1.0)
        grid = uniform_grid(1.0, 0.1)
        closed = evolve_closed_form(params, REST, grid)
        broken = closed.states.copy()
        broken[3, 0] = bad
        routes = {"closed": Trajectory(grid, broken, "closed-form"), "spectral": closed}
        [(_, _, err, _, bound)] = route_agreement(routes, 1e-3)
        assert bound == TOLERANCES["closed_vs_spectral"]
        assert exceeds(err, bound)
        [(_, _, err, _, bound)] = route_agreement({"closed": closed, "rk": routes["closed"]}, 1e-3)
        assert bound == rk_tolerance(1e-3) * np.abs(closed.states).max()
        assert exceeds(err, bound)

    @pytest.mark.parametrize("ratio", [0.3, 2.0, -0.3], ids=["BP", "UP", "gain-BP"])
    def test_rk_pairs_hold_in_circuit_units(self, ratio):
        # one run in units of 1/omega0 at every omega0; samples 10 apart are coarser
        # than RK4's stability limit 2.83, so the RK step must be RK_STEP/omega0
        for w in 10.0 ** np.arange(-3, 7):
            result = build_report(CircuitParams.from_rates(ratio * w, w), t_max=100 / w, dt=10 / w)
            dyn = result.report["dynamics"]
            assert dyn["rk_step"] == report.RK_STEP
            rk_pairs = [key for key in dyn if key.endswith("_vs_rk")]
            assert rk_pairs and all(np.isfinite(dyn[key]) for key in rk_pairs), w
            assert not [line for line in result.violations if "_vs_rk" in line], w

    @pytest.mark.parametrize("zeta", [100.0, 1000.0])
    def test_rk_pairs_hold_when_strongly_overdamped(self, zeta):
        # the fast mode's rate is about 2*zeta*omega0: the RK step must resolve it
        for w in 10.0 ** np.arange(-3, 7):
            result = build_report(CircuitParams.from_rates(zeta * w, w))
            assert not [line for line in result.violations if "_vs_rk" in line], w

    def test_every_registry_gate_is_reached_with_its_bound_read_at_call_time(self, monkeypatch):
        for name in TOLERANCES:
            monkeypatch.setitem(TOLERANCES, name, -1.0)
        monkeypatch.setattr(dynamics, "rk_tolerance", lambda step: -1.0)  # route_agreement reads it
        violations = build_report(BP).violations + build_report(EP).violations
        assert all(line.endswith(" exceeds -1.0e+00") for line in violations)
        flagged = {line.split(" = ")[0] for line in violations}
        assert flagged == set(TOLERANCES) | {"closed_vs_rk", "spectral_vs_rk", "expm_vs_rk"}


def layout(section: dict) -> list:
    """Ordered keys of a report section; a nested dict gives (key, its layout)."""
    return [(k, layout(v)) if isinstance(v, dict) else k for k, v in section.items()]


C = ["re", "im"]
SECTIONS = ["schema", "input", "spectral", "metric", "pseudofermion", "equivalence", "dynamics"]
INPUT = ["alpha", "omega0", "resistance", "inductance", "capacitance", "phase"]
MODES = [
    ("lambda_plus", C), ("lambda_minus", C), ("mu_plus", C), ("mu_minus", C),
    ("normalization_products", [
        ("phi_plus_psi_plus", C), ("phi_plus_psi_minus", C),
        ("phi_minus_psi_plus", C), ("phi_minus_psi_minus", C),
    ]),
    "biorthogonality_residual",
]
EP_MODES = [("lambda_ep", C), ("mu_ep", C), "phi_ep", "psi_ep", "self_orthogonality_residual"]
METRIC = [
    "kind", "s_phi", "s_psi", "similar_hamiltonian", "inverse_residual", "mapping_residual",
    ("intertwining", ["h_sphi", "spsi_h", "adjoint"]),
]
LADDER = [
    ("a", C), ("b", C), ("gamma", C), ("omega", C), ("rho", C), "anticommutator_residual",
    "c_squared_residual", "cc_squared_residual", "hamiltonian_residual", "pt_symmetric",
]
NO_LADDER = ["existence_violation", "pt_symmetric"]
ROUTE_PAIRS = ["closed_vs_spectral", "closed_vs_rk", "spectral_vs_rk"]


class TestLayout:
    """analyze prints the report without sort_keys, so key order is output."""

    def sections(self, params) -> dict:
        rep = build_report(params).report
        assert list(rep) == SECTIONS and rep["schema"] == 1
        assert layout(rep["input"]) == INPUT
        assert layout(rep["equivalence"]) == [("trace", C), ("det", C)]
        return rep

    @pytest.mark.parametrize(
        "params, pairs", [(BP, ROUTE_PAIRS), (UP, ["spectral_vs_rk"])], ids=["BP", "UP"]
    )
    def test_ladder_point(self, params, pairs):
        rep = self.sections(params)
        assert layout(rep["spectral"]) == MODES
        assert layout(rep["metric"]) == METRIC
        assert layout(rep["pseudofermion"]) == LADDER
        assert layout(rep["dynamics"]) == ["t_max", "dt", "rk_step", *pairs]

    def test_exceptional_point(self):
        rep = self.sections(EP)
        assert layout(rep["spectral"]) == EP_MODES
        assert rep["metric"] is None
        assert layout(rep["pseudofermion"]) == NO_LADDER
        assert layout(rep["dynamics"]) == ["t_max", "dt", "rk_step", "expm_vs_rk"]

    def test_no_ladder_branch(self, monkeypatch):
        def no_ladder(params, branch):
            raise ExistenceViolation("no ladder")

        monkeypatch.setattr(pseudofermion, "pf_identify", no_ladder)
        rep = self.sections(BP)
        assert layout(rep["metric"]) == METRIC
        assert layout(rep["pseudofermion"]) == NO_LADDER
        assert rep["pseudofermion"]["existence_violation"] is True
        assert layout(rep["dynamics"]) == ["t_max", "dt", "rk_step", *ROUTE_PAIRS]
