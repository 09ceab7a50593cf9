import numpy as np

from nhrlc import CircuitParams, build_report


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
