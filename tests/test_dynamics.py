import io

import numpy as np
import pytest

from nhrlc import (
    CircuitParams,
    GridMismatch,
    InitialData,
    Phase,
    PhaseUnsupported,
    Trajectory,
    compare,
    evolve_closed_form,
    evolve_integrated,
    evolve_spectral,
    gain_hamiltonian,
    hamiltonian,
    initial_state,
    integrate_rk4,
    uniform_grid,
    write_csv,
)

from helpers import draw_params

SQ2 = np.sqrt(2.0)

BP_REF = CircuitParams.from_rates(1 / SQ2, 1.0)
UP_REF = CircuitParams.from_rates(5 / 4, 3 / 4)
EP_REF = CircuitParams.from_rates(2.0, 2.0)

REST = InitialData(i0=1.0, v0=0.0, inductance=1.0)


class TestInitialState:
    def test_derivative_convention(self):
        init = InitialData(i0=2.0, v0=3.0, inductance=0.5)
        state = initial_state(init, BP_REF)
        assert state[0] == 2.0
        assert state[1] == -BP_REF.alpha * 2.0 - 3.0 / 0.5

    def test_rejects_bad_inductance(self):
        with pytest.raises(ValueError):
            InitialData(i0=1.0, v0=0.0, inductance=0.0)


class TestUniformGrid:
    def test_inclusive_endpoints(self):
        grid = uniform_grid(10.0, 0.01)
        assert grid[0] == 0.0 and abs(grid[-1] - 10.0) < 1e-12
        assert grid.size == 1001

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            uniform_grid(10.0, -0.1)


class TestClosedForm:
    def test_undamped_cosine(self):
        grid = uniform_grid(10.0, 0.01)
        traj = evolve_closed_form(CircuitParams.from_rates(0.0, 1.0), REST, grid)
        np.testing.assert_allclose(traj.states[:, 0].real, np.cos(grid), atol=1e-12)
        assert traj.method == "closed-form"

    def test_damped_reference_cosine(self):
        grid = uniform_grid(5.0, 0.01)
        traj = evolve_closed_form(BP_REF, REST, grid)
        expected = np.exp(-grid / SQ2) * np.cos(grid / SQ2)
        np.testing.assert_allclose(traj.states[:, 0].real, expected, atol=1e-12)

    def test_pure_sine_initial_condition(self):
        wd = np.sqrt(1.0 - 0.5)
        init = InitialData(i0=0.0, v0=-1.0 * wd, inductance=1.0)
        grid = uniform_grid(5.0, 0.01)
        traj = evolve_closed_form(BP_REF, init, grid)
        expected = np.exp(-grid / SQ2) * np.sin(grid / SQ2)
        np.testing.assert_allclose(traj.states[:, 0].real, expected, atol=1e-12)

    def test_derivative_channel_consistent(self):
        grid = uniform_grid(5.0, 0.001)
        for traj in (
            evolve_closed_form(BP_REF, REST, grid),
            evolve_spectral(BP_REF, REST, grid),
            evolve_integrated(BP_REF, REST, grid, step=1e-3),
        ):
            x1 = traj.states[:, 0].real
            numeric = np.gradient(x1, grid)
            assert np.abs(numeric[5:-5] - traj.states[5:-5, 1].real).max() < 1e-4

    @pytest.mark.parametrize("params", [UP_REF, EP_REF])
    def test_outside_broken_phase_rejected(self, params):
        with pytest.raises(PhaseUnsupported):
            evolve_closed_form(params, REST, uniform_grid(1.0, 0.1))


class TestSpectral:
    def test_time_zero_matches_initial_state(self):
        traj = evolve_spectral(BP_REF, REST, np.array([0.0, 1.0]))
        np.testing.assert_allclose(traj.states[0], initial_state(REST, BP_REF), atol=1e-14)

    def test_matches_closed_form(self):
        grid = uniform_grid(20.0, 0.01)
        closed = evolve_closed_form(BP_REF, REST, grid)
        spectral = evolve_spectral(BP_REF, REST, grid)
        err, _ = compare(closed, spectral)
        assert err < 1e-10

    def test_real_current_for_real_data(self):
        grid = uniform_grid(10.0, 0.01)
        traj = evolve_spectral(BP_REF, REST, grid)
        assert np.abs(traj.states[:, 0].imag).max() < 1e-10

    def test_overdamped_monotone_after_derivative_zero(self):
        grid = uniform_grid(10.0, 0.01)
        traj = evolve_spectral(UP_REF, REST, grid)
        x1 = traj.states[:, 0].real
        x2 = traj.states[:, 1].real
        sign_changes = np.nonzero(np.diff(np.sign(x2[np.abs(x2) > 1e-14])))[0]
        assert sign_changes.size <= 1
        start = sign_changes[0] + 2 if sign_changes.size else 0
        diffs = np.diff(np.abs(x1[start:]))
        assert np.all(diffs <= 1e-14)

    def test_exceptional_point_falls_back_to_expm(self):
        grid = uniform_grid(2.0, 0.01)
        traj = evolve_spectral(EP_REF, REST, grid)
        assert traj.method == "expm"
        rk = evolve_integrated(EP_REF, REST, grid, step=1e-3)
        err, _ = compare(traj, rk)
        assert err < 1e-6


class TestIntegrated:
    def test_norm_conserved_for_hermitian_generator(self):
        params = CircuitParams.from_rates(0.0, 1.0)
        grid = uniform_grid(10.0, 0.01)
        traj = evolve_integrated(params, REST, grid, step=1e-3)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.abs(norms - norms[0]).max() < 1e-8

    def test_matches_closed_form(self):
        grid = uniform_grid(10.0, 0.01)
        closed = evolve_closed_form(BP_REF, REST, grid)
        rk = evolve_integrated(BP_REF, REST, grid, step=1e-3)
        err, _ = compare(closed, rk)
        assert err < 1e-6

    def test_fourth_order_convergence(self):
        # grid interval divisible by every step, so the requested step is
        # the realized one and halving is exact
        grid = uniform_grid(5.0, 0.04)
        closed = evolve_closed_form(BP_REF, REST, grid)
        errors = []
        for step in (0.02, 0.01, 0.005):
            rk = evolve_integrated(BP_REF, REST, grid, step=step)
            err, _ = compare(closed, rk)
            errors.append(err)
        for coarse, fine in zip(errors, errors[1:]):
            assert 16.0 * 0.8 < coarse / fine < 16.0 * 1.2

    def test_grid_not_starting_at_zero(self):
        grid = np.array([1.0, 2.0, 3.0])
        rk = evolve_integrated(BP_REF, REST, grid, step=1e-3)
        closed = evolve_closed_form(BP_REF, REST, grid)
        err, _ = compare(closed, rk)
        assert err < 1e-9

    @pytest.mark.parametrize(
        "grid",
        [
            uniform_grid(10.0, 0.01),  # build_report's default grid
            np.linspace(0.35, 4.0, 301),
            np.cumsum(np.linspace(0.002, 0.03, 150)),
        ],
        ids=["report-default", "late-start", "non-uniform"],
    )
    def test_propagators_match_stepwise_integration(self, grid):
        for params in (BP_REF, UP_REF, EP_REF):
            traj = evolve_integrated(params, REST, grid, step=1e-3)
            full = grid if grid[0] == 0.0 else np.concatenate([[0.0], grid])
            loop = integrate_rk4(hamiltonian(params), initial_state(REST, params), full, 1e-3)
            loop = loop[full.size - grid.size:]
            assert np.abs(traj.states - loop).max() <= 1e-12 * np.abs(loop).max()

    def test_matrix_state_steps_each_column(self):
        h = hamiltonian(BP_REF)
        grid = np.array([0.0, 0.25, 0.7, 1.0])
        stacked = integrate_rk4(h, np.eye(2), grid, 1e-2)
        assert stacked.shape == (4, 2, 2)
        for j, column in enumerate(np.eye(2)):
            np.testing.assert_allclose(
                stacked[:, :, j], integrate_rk4(h, column, grid, 1e-2), rtol=1e-14, atol=0
            )


class TestCompare:
    def test_identical_trajectories(self):
        grid = uniform_grid(1.0, 0.1)
        traj = evolve_spectral(BP_REF, REST, grid)
        err, at = compare(traj, traj)
        assert err == 0.0 and at == grid[0]

    def test_grid_mismatch(self):
        a = evolve_spectral(BP_REF, REST, uniform_grid(1.0, 0.1))
        b = evolve_spectral(BP_REF, REST, uniform_grid(1.0, 0.05))
        with pytest.raises(GridMismatch):
            compare(a, b)

    def test_non_finite_error_placed_at_first_non_finite_distance(self):
        grid = uniform_grid(5.0, 1.0)
        a = Trajectory(times=grid, states=np.zeros((grid.size, 2), dtype=complex), method="a")
        states = np.zeros((grid.size, 2), dtype=complex)
        states[2, 0], states[4, 1] = np.inf, np.nan
        err, at = compare(a, Trajectory(times=grid, states=states, method="b"))
        assert np.isnan(err) and at == 2.0


class TestPhysicalBounds:
    def test_decay_envelope(self):
        rng = np.random.default_rng(60)
        grid = uniform_grid(10.0, 0.05)
        for _ in range(20):
            params = draw_params(rng, Phase.BROKEN)
            if params.alpha <= 0.01:
                continue
            wd = np.sqrt(params.omega0 ** 2 - params.alpha ** 2)
            init = InitialData(i0=rng.normal(), v0=rng.normal(), inductance=1.0)
            traj = evolve_closed_form(params, init, grid)
            envelope = np.exp(-params.alpha * grid) * (
                abs(init.i0) + abs(init.v0) / (init.inductance * wd)
            )
            assert np.all(np.abs(traj.states[:, 0].real) <= envelope + 1e-12)

    def test_gain_mirror_growth_rate(self):
        # adjoint generator with mirrored initial slope grows like e^{+a t};
        # measure the rate over a whole number of periods so the oscillatory
        # factor cancels
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 10:
            alpha = rng.uniform(0.2, 1.2)
            omega0 = rng.uniform(alpha + 1.4, alpha + 2.5)
            params = CircuitParams.from_rates(alpha, omega0)
            wd = np.sqrt(omega0 ** 2 - alpha ** 2)
            if wd < 1.3:
                continue
            i0 = rng.uniform(0.5, 2.0)
            state0 = np.array([i0, alpha * i0], dtype=complex)
            period = 2 * np.pi / wd
            t1 = 5.0
            t2 = t1 + np.floor(5.0 / period) * period
            grid = np.array([0.0, t1, t2])
            states = integrate_rk4(gain_hamiltonian(params), state0, grid, 1e-3)
            slope = np.log(
                np.linalg.norm(states[2]) / np.linalg.norm(states[1])
            ) / (t2 - t1)
            assert abs(slope - alpha) < 0.05 * alpha
            checked += 1


class TestThreeWayAgreement:
    def test_pairwise_errors_on_draws(self):
        rng = np.random.default_rng(62)
        grid = uniform_grid(10.0, 0.05)
        for _ in range(10):
            params = draw_params(rng, Phase.BROKEN)
            init = InitialData(i0=rng.normal(), v0=rng.normal(), inductance=1.0)
            closed = evolve_closed_form(params, init, grid)
            spectral = evolve_spectral(params, init, grid)
            rk = evolve_integrated(params, init, grid, step=1e-3)
            assert compare(closed, spectral)[0] < 1e-10
            assert compare(closed, rk)[0] < 1e-6
            assert compare(spectral, rk)[0] < 1e-6


class TestCsv:
    def test_round_trip_format(self):
        grid = uniform_grid(0.3, 0.1)
        traj = evolve_spectral(BP_REF, REST, grid)
        buf = io.StringIO()
        write_csv(traj, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,re_x1,im_x1,re_x2,im_x2,method"
        assert len(lines) == grid.size + 1
        fields = lines[1].split(",")
        assert fields[-1] == "spectral"
        parsed = np.array([float(v) for v in fields[:-1]])
        np.testing.assert_allclose(
            parsed,
            [0.0, traj.states[0, 0].real, traj.states[0, 0].imag,
             traj.states[0, 1].real, traj.states[0, 1].imag],
            atol=0,
        )

    def test_values_survive_exactly(self):
        grid = uniform_grid(0.5, 0.25)
        traj = evolve_integrated(BP_REF, REST, grid, step=1e-2)
        buf = io.StringIO()
        write_csv(traj, buf)
        rows = [line.split(",") for line in buf.getvalue().strip().splitlines()[1:]]
        rebuilt = np.array(
            [[complex(float(r[1]), float(r[2])), complex(float(r[3]), float(r[4]))] for r in rows]
        )
        np.testing.assert_array_equal(rebuilt, traj.states)
