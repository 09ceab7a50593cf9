import numpy as np

from nhrlc import (
    CircuitParams,
    InitialData,
    build_report,
    evolve_closed_form,
    evolve_spectral,
    uniform_grid,
)
from nhrlc.report import TOLERANCES, rk_tolerance, route_agreement


class TestGates:
    def test_nan_residual_is_a_violation(self):
        # omega0*rk_step = 4 is past RK4's stability limit: the RK route
        # overflows and its agreement residuals are NaN
        with np.errstate(over="ignore", invalid="ignore"):
            result = build_report(
                CircuitParams.from_rates(0.1, 1.0), t_max=2000.0, dt=4.0, rk_step=4.0
            )
        dyn = result.report["dynamics"]
        assert np.isnan(dyn["closed_vs_rk"]) and np.isnan(dyn["spectral_vs_rk"])
        flagged = {line.split(" = ")[0] for line in result.violations}
        assert flagged == {"closed_vs_rk", "spectral_vs_rk"}

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
