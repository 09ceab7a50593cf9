import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nhrlc.dynamics
from nhrlc import (
    CircuitParams,
    GridMismatch,
    InitialData,
    Phase,
    PhaseUnsupported,
    Trajectory,
    classify,
    compare,
    eigensystem,
    evolve_closed_form,
    evolve_integrated,
    evolve_spectral,
    expand,
    gain_hamiltonian,
    hamiltonian,
    initial_state,
    integrate_rk4,
    uniform_grid,
    write_csv,
)
from nhrlc.dynamics import cross_check, route_agreement

from helpers import REAL_VALUES, complex_spectral_states, draw_params, reference_trajectory_csv

SQ2 = np.sqrt(2.0)

BP_REF = CircuitParams.from_rates(1 / SQ2, 1.0)
UP_REF = CircuitParams.from_rates(5 / 4, 3 / 4)
EP_REF = CircuitParams.from_rates(2.0, 2.0)
GAIN_REF = CircuitParams.from_rates(-0.3, 1.0)
GAIN_EP = CircuitParams.from_rates(-2.0, 2.0)

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

    def test_rejects_nan_current(self):
        with pytest.raises(ValueError, match="initial data must be finite"):
            InitialData(i0=np.nan, v0=0.0, inductance=1.0)

    @pytest.mark.parametrize("field", ["i0", "v0", "inductance"])
    def test_rejects_complex_data(self, field):
        kwargs = {"i0": 1.0, "v0": 0.0, "inductance": 1.0, field: 1j}
        with pytest.raises(TypeError, match="complex"):
            InitialData(**kwargs)

    @pytest.mark.parametrize("value", REAL_VALUES)
    def test_finite_verdicts_on_real_data_are_numpys(self, value):
        for field in ("i0", "v0", "inductance"):
            kwargs = {"i0": 1.0, "v0": 0.0, "inductance": 1.0, field: value}
            if np.isfinite(value):
                try:
                    InitialData(**kwargs)
                except ValueError as exc:
                    assert str(exc) == "inductance must be positive"
            else:
                with pytest.raises(ValueError, match="^initial data must be finite$"):
                    InitialData(**kwargs)


class TestUniformGrid:
    def test_inclusive_endpoints(self):
        grid = uniform_grid(10.0, 0.01)
        assert grid[0] == 0.0 and abs(grid[-1] - 10.0) < 1e-12
        assert grid.size == 1001

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            uniform_grid(10.0, -0.1)

    @pytest.mark.parametrize(
        "t_max, dt",
        [(np.inf, 0.01), (np.nan, 0.01), (10.0, np.inf), (10.0, np.nan), (-np.inf, 0.01)],
    )
    def test_rejects_non_finite_inputs(self, t_max, dt):
        with pytest.raises(ValueError, match="finite"):
            uniform_grid(t_max, dt)

    @pytest.mark.parametrize("t_max, dt", [(1j, 0.01), (10.0, 0.01 + 0j), (np.complex128(10.0), 0.01)])
    def test_rejects_complex_inputs(self, t_max, dt):
        with pytest.raises(TypeError, match="complex"):
            uniform_grid(t_max, dt)

    @pytest.mark.parametrize("value", REAL_VALUES)
    def test_finite_verdicts_on_real_inputs_are_numpys(self, value):
        for t_max, dt in ((value, 0.01), (10.0, value)):
            if np.isfinite(value):
                try:
                    uniform_grid(t_max, dt)
                except ValueError as exc:
                    assert str(exc) in ("t_max and dt must be positive", "t_max / dt must be finite")
            else:
                with pytest.raises(ValueError, match="^t_max and dt must be finite$"):
                    uniform_grid(t_max, dt)

    @pytest.mark.parametrize("t_max, dt", [(1e300, 1e-300), (1e308, 0.5)])
    def test_rejects_an_overflowing_ratio(self, t_max, dt):
        with pytest.raises(ValueError, match="t_max / dt must be finite"):
            uniform_grid(t_max, dt)

    def test_each_call_returns_a_fresh_writable_linspace(self, monkeypatch):
        monkeypatch.setattr(nhrlc.dynamics, "_grid", (None, None))
        # (10.004, 0.01) rounds to the (n*dt, n) of (10, 0.01): a repeat call; (10, 0.02) is not
        for t_max, dt in [(10.0, 0.01), (10.0, 0.01), (10.0, 0.02), (5.0, 0.04), (10.0, 0.01),
                          (10.004, 0.01)]:
            grid = uniform_grid(t_max, dt)
            n = round(t_max / dt)
            assert grid.flags.writeable and grid.flags.owndata
            assert grid.tobytes() == np.linspace(0.0, n * dt, n + 1).tobytes()
            grid[:] = np.nan  # written by its caller: the next call's grid must not see it
            with pytest.raises(ValueError, match="positive"):  # checked on a repeat call too
                uniform_grid(t_max, -dt)


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

    @pytest.mark.parametrize("alpha", [-2.0, -1e200])
    def test_gain_beyond_omega0_rejected_before_squaring(self, alpha):
        # alpha < -omega0 is gain UP; alpha ** 2 would overflow at -1e200
        with pytest.raises(PhaseUnsupported, match="broken phase only"):
            evolve_closed_form(CircuitParams.from_rates(alpha, 1.0), REST, uniform_grid(1.0, 0.1))


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
        # the route keeps the real part of the biorthogonal sum; that sum is real
        # only because phi- is phi+'s conjugate partner (and b-, lambda- follow)
        grid = uniform_grid(10.0, 0.01)
        system = eigensystem(BP_REF)
        b_plus, b_minus = expand(system, initial_state(REST, BP_REF))
        phases_p = np.exp(-1j * system.lambda_plus * grid)[:, None]
        phases_m = np.exp(-1j * system.lambda_minus * grid)[:, None]
        states = b_plus * phases_p * system.phi_plus + b_minus * phases_m * system.phi_minus
        assert np.abs(states.imag).max() < 1e-10
        assert np.array_equal(evolve_spectral(BP_REF, REST, grid).states, states.real)

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

    @pytest.mark.parametrize("alpha", [1e154, 1.0, 3e-5, 1e-150])
    def test_exceptional_point_matches_the_jordan_solution(self, alpha):
        # x1 = e^{-s}(1 - s/2), s = alpha*t, for I'(0) = -1.5*alpha; eig2 never sees omega0^2
        params = CircuitParams.from_rates(alpha, alpha)
        ts = np.linspace(0.0, 10.0, 101) / alpha
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve_spectral(params, InitialData(1.0, 0.5 * alpha, 1.0), ts)
        s = alpha * ts
        expected = np.exp(-s)[:, None] * np.column_stack([1.0 - 0.5 * s, alpha * (0.5 * s - 1.5)])
        err = np.abs(traj.states - expected).max(axis=0)
        assert traj.method == "expm"
        assert np.all(err <= 1e-14 * np.abs(expected).max(axis=0))


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

    @pytest.mark.parametrize(
        "grid",
        [
            uniform_grid(10.0, 1e-3),  # evolve's grid: ten scan blocks
            np.linspace(0.0, 3.0, 2 * 1024 + 2),  # crosses two block edges
            np.linspace(0.5, 3.0, 1025),  # late start: 1024 intervals plus the prefix
            np.array([]),
            np.array([0.0]),
            np.array([0.7]),
            np.array([0.0, 0.5]),
        ],
        ids=["evolve-default", "block-edges", "late-start-block", "empty", "origin", "late-point",
             "two-points"],
    )
    @pytest.mark.parametrize("params", [BP_REF, UP_REF, EP_REF, GAIN_REF], ids=["BP", "UP", "EP", "gain"])
    def test_prefix_scan_matches_stepwise_integration(self, grid, params):
        traj = evolve_integrated(params, REST, grid, step=1e-3)
        full = grid if grid.size == 0 or grid[0] == 0.0 else np.concatenate([[0.0], grid])
        loop = integrate_rk4(hamiltonian(params), initial_state(REST, params), full, 1e-3)
        loop = loop[full.size - grid.size:]
        assert traj.states.shape == loop.shape == (grid.size, 2)
        err = np.abs(traj.states - loop).max(initial=0.0)
        assert err <= 1e-12 * np.abs(loop).max(initial=0.0)

    def test_one_integrator_call_per_distinct_length(self, monkeypatch):
        calls = []

        def counted(h, state0, times, step):
            calls.append((np.shape(h), list(times)))
            return integrate_rk4(h, state0, times, step)

        monkeypatch.setattr(nhrlc.dynamics, "integrate_rk4", counted)
        # a uniform grid has one length: one (augmented 4x4) generator over one substep
        evolve_integrated(BP_REF, REST, uniform_grid(10.0, 0.01), step=1e-3)
        assert calls == [((4, 4), [0.0, 0.001])]
        calls.clear()
        grid = np.cumsum(np.linspace(0.002, 0.03, 150))
        evolve_integrated(BP_REF, REST, grid, step=1e-3)
        spans = set(np.diff(np.concatenate([[0.0], grid])).tolist())
        assert len(calls) == len(spans) > 1
        assert all(shape == (4, 4) for shape, _ in calls)

    @pytest.mark.parametrize("params", [BP_REF, UP_REF, EP_REF, GAIN_REF], ids=["BP", "UP", "EP", "gain"])
    def test_grid_one_ulp_off_uniform_takes_the_recurrence(self, params, monkeypatch):
        shapes = []

        def recorded(h, state0, times, step):
            shapes.append(np.shape(h))
            return integrate_rk4(h, state0, times, step)

        grid = uniform_grid(10.0, 0.01)
        grid[500] = np.nextafter(grid[500], np.inf)
        monkeypatch.setattr(nhrlc.dynamics, "integrate_rk4", recorded)
        traj = evolve_integrated(params, REST, grid, step=1e-3)
        assert shapes == [(4, 4)] * len(set(np.diff(grid).tolist()))  # one per distinct length
        assert len(shapes) > 1
        loop = integrate_rk4(hamiltonian(params), initial_state(REST, params), grid, 1e-3)
        assert np.abs(traj.states - loop).max() <= 1e-12 * np.abs(loop).max()

    @pytest.mark.parametrize(
        "grid", [uniform_grid(10.0, 1e-3), uniform_grid(20.0, 4.0)], ids=["m=1", "m=4000"]
    )
    def test_substep_rounding_does_not_add_up(self, grid):
        # a propagator kept as M = I + D is rounded at 1 on its diagonal; reused
        # over 10^4 substeps, that drifts about 1e-12 relative at a gain point
        traj = evolve_integrated(GAIN_REF, REST, grid, step=1e-3)
        loop = integrate_rk4(hamiltonian(GAIN_REF), initial_state(REST, GAIN_REF), grid, 1e-3)
        assert np.abs(traj.states - loop).max() <= 1e-13 * np.abs(loop).max()

    @pytest.mark.parametrize(
        "grid", [uniform_grid(10.0, 0.01), uniform_grid(10.0, 0.5)],
        ids=["report-default", "5000-substep-intervals"],
    )
    @pytest.mark.parametrize("alpha, omega0", [(40.0, 50.0), (5.0, 10.0)])
    def test_decayed_loss_states_keep_their_relative_accuracy(self, grid, alpha, omega0):
        # M^s - I holds a state decayed to e^-400 only to eps of its start: M^s is kept instead
        params = CircuitParams.from_rates(alpha, omega0)
        routes, _ = cross_check(params, REST, grid)
        exact, rk = routes["closed"].states, routes["rk"].states
        size = np.hypot(*exact.T)
        normal = size >= np.finfo(float).tiny
        assert normal.sum() == grid.size
        assert (np.hypot(*(rk - exact).T)[normal] / size[normal]).max() < 1e-9

    @pytest.mark.parametrize(
        "grid",
        [
            uniform_grid(10.0, 0.01),
            np.cumsum(np.linspace(0.002, 0.03, 150)),
            np.array([1e6]),  # 10^9 substeps: a stepwise fallback would not end
        ],
        ids=["uniform", "non-uniform", "late-point"],
    )
    def test_each_integrator_call_covers_one_substep(self, grid, monkeypatch):
        calls = []

        def recorded(h, state0, times, step):
            start, end = times  # fails at once, before any stepping
            if not (start == 0.0 and end <= step):
                raise AssertionError(f"integrate_rk4 over {list(times)} at step {step}")
            calls.append(end)
            return integrate_rk4(h, state0, times, step)

        monkeypatch.setattr(nhrlc.dynamics, "integrate_rk4", recorded)
        evolve_integrated(BP_REF, REST, grid, step=1e-3)
        assert calls

    @pytest.mark.parametrize(
        "grid, params",
        [(uniform_grid(5.0, 0.5), p) for p in (BP_REF, UP_REF, EP_REF, GAIN_REF)]
        + [(uniform_grid(20.0, 2.0), GAIN_REF)],
        ids=["BP-m500", "UP-m500", "EP-m500", "gain-m500", "gain-m2000"],
    )
    def test_powered_propagators_on_long_intervals(self, grid, params):
        # a power of one rounded substep drifts by about one eps per substep
        traj = evolve_integrated(params, REST, grid, step=1e-3)
        loop = integrate_rk4(hamiltonian(params), initial_state(REST, params), grid, 1e-3)
        n = sum(max(1, math.ceil(span / 1e-3 - 1e-12)) for span in np.diff(grid).tolist())
        bound = n * np.finfo(float).eps * np.abs(loop).max()
        assert np.abs(traj.states - loop).max() <= bound

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["BP", "UP", "EP", "gain"]),
        st.floats(min_value=0.05, max_value=0.999),
        st.floats(min_value=0.5, max_value=2.0),
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=2.0)),
        st.lists(
            st.one_of(st.floats(min_value=1e-4, max_value=0.05), st.sampled_from([1e-3, 0.01, 0.0315])),
            min_size=1, max_size=40,
        ),
    )
    def test_prefix_products_match_stepwise_on_random_grids(self, kind, ratio, w0, start, spans):
        # substep counts from 1 to 50 on many distinct lengths, from t = 0 or later
        alpha = {"BP": ratio, "UP": 1.0 + 2.0 * ratio, "EP": 1.0 + (ratio - 0.5) * 1e-12,
                 "gain": -ratio}[kind]
        params = CircuitParams.from_rates(alpha * w0, w0)
        grid = start + np.cumsum(np.concatenate([[0.0], spans]))
        traj = evolve_integrated(params, REST, grid, step=1e-3)
        full = grid if grid[0] == 0.0 else np.concatenate([[0.0], grid])
        loop = integrate_rk4(hamiltonian(params), initial_state(REST, params), full, 1e-3)
        n = sum(max(1, math.ceil(span / 1e-3 - 1e-12)) for span in np.diff(full).tolist())
        # each substep rounds by about eps of the largest state; near the EP the
        # propagator's powers are a Jordan block's, whose growth 1 + omega0*t
        # scales that rounding
        bound = n * np.finfo(float).eps * np.abs(loop).max() * (1.0 + w0 * grid[-1])
        assert np.abs(traj.states - loop[full.size - grid.size:]).max() <= bound

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["BP", "UP", "EP", "near-EP-loss", "near-EP-gain", "gain"]),
        st.floats(min_value=0.05, max_value=0.999),
        st.floats(min_value=-9.0, max_value=-3.0),
        st.floats(min_value=0.5, max_value=2.0),
        st.integers(min_value=2, max_value=10_000),
        st.integers(min_value=1, max_value=4000),
        st.floats(min_value=1e-4, max_value=0.3),
        st.booleans(),
    )
    @example("gain", 0.9, -3.0, 1.8, 10_000, 1, 1e-3, False)
    @example("near-EP-gain", 0.5, -9.0, 1.0, 2, 4000, 1e-3, True)
    def test_state_doubling_matches_stepwise_on_uniform_grids(
        self, kind, ratio, log_delta, w0, n, m, w0_substep, late
    ):
        # n from 2 to 10^4 intervals of m from 1 to 4000 substeps, at most 10^4
        # substeps in all to bound the loop's time; a late grid is uniform once
        # 0 is prefixed
        m = min(m, 10_000 // n)
        delta = math.copysign(10.0**log_delta, ratio - 0.5)
        alpha = {"BP": ratio, "UP": 1.0 + 2.0 * ratio, "EP": 1.0 + (ratio - 0.5) * 1e-12,
                 "near-EP-loss": 1.0 + delta, "near-EP-gain": -1.0 - delta, "gain": -ratio}[kind]
        params = CircuitParams.from_rates(alpha * w0, w0)
        t_end = min(30.0, n * m * w0_substep) / w0
        full = np.linspace(0.0, t_end, n + 1)
        step = t_end / n / (m - 0.5)  # every rounded interval takes m substeps
        grid = full[1:] if late else full
        traj = evolve_integrated(params, REST, grid, step=step)
        loop = integrate_rk4(hamiltonian(params), initial_state(REST, params), full, step)
        bound = n * m * np.finfo(float).eps * np.abs(loop).max() * (1.0 + w0 * t_end)
        assert np.abs(traj.states - loop[full.size - grid.size:]).max() <= bound

    def test_evolve_grid_makes_one_integrator_call(self, monkeypatch):
        # linspace rounding gives the grid's intervals many distinct lengths, 624
        # of them two substeps by the stepwise rule: the uniform branch takes one
        calls = []

        def counted(h, state0, times, step):
            calls.append(np.shape(h))
            return integrate_rk4(h, state0, times, step)

        monkeypatch.setattr(nhrlc.dynamics, "integrate_rk4", counted)
        evolve_integrated(GAIN_REF, REST, uniform_grid(10.0, 1e-3), step=1e-3)
        assert calls == [(4, 4)]

    @pytest.mark.parametrize("grid", [uniform_grid(10.0, 0.01), np.linspace(0.35, 4.0, 301)],
                             ids=["report-default", "late-start"])
    @pytest.mark.parametrize("params", [BP_REF, UP_REF, EP_REF, GAIN_REF], ids=["BP", "UP", "EP", "gain"])
    def test_states_have_zero_imaginary_parts(self, grid, params):
        # the RK route keeps real states because the complex stepwise RK4 on the
        # grid it steps, from 0, has exactly +0.0 imaginary parts: -iH and Phi(0) are real
        full = grid if grid[0] == 0 else np.concatenate([[0.0], grid])
        imag = integrate_rk4(hamiltonian(params), initial_state(REST, params), full, 1e-3).imag
        assert np.all(imag == 0.0) and not np.any(np.signbit(imag))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step": np.nan},
            {"step": 0.0},
            {"times": np.array([0.0, np.nan, 1.0])},
            {"times": np.array([0.0, 1.0, np.inf])},
            {"times": np.array([0.0, 1.0, 1.0])},
            {"times": np.array([-1.0, 1.0])},
            {"times": np.array([0.0, 1.0]), "step": 1e-310},  # 1/step overflows
            {"step": 1e-320},  # on the uniform grid too
        ],
        ids=["nan-step", "zero-step", "nan-time", "inf-time", "repeated-time", "negative-start",
             "overflowing-substeps", "overflowing-uniform-substeps"],
    )
    def test_rejects_bad_step_or_grid(self, kwargs):
        args = {"times": uniform_grid(1.0, 0.1), "step": 1e-3} | kwargs
        with pytest.raises(ValueError):
            evolve_integrated(BP_REF, REST, args["times"], step=args["step"])

    @pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.0, 1.0, 0.5]])
    def test_rk4_rejects_a_grid_that_is_not_increasing(self, times):
        with pytest.raises(ValueError, match="strictly increasing"):
            integrate_rk4(hamiltonian(BP_REF), [1.0, 0.0], times, 1e-3)

    @pytest.mark.parametrize(
        "step, message",
        [(float("nan"), "step must be positive"), (0.0, "step must be positive"),
         (-1e-3, "step must be positive"), (1e-310, "interval / step must be finite")],
        ids=["nan", "0.0", "-0.001", "overflowing-substeps"],  # 1/1e-310 overflows
    )
    def test_rk4_rejects_a_step_that_is_not_positive(self, step, message):
        with pytest.raises(ValueError, match=message):
            integrate_rk4(hamiltonian(BP_REF), [1.0, 0.0], [0.0, 1.0], step)

    def test_rk4_is_bitwise_the_stepwise_loop(self):
        h = hamiltonian(BP_REF)
        gen = -1j * h
        times = np.linspace(0.0, 10.0, 1001)
        state = np.array([1.0, -0.3], dtype=complex)
        for a, b in zip(times, times[1:]):
            n = max(1, math.ceil((b - a) / 1e-3 - 1e-12))
            dt = (b - a) / n
            for _ in range(n):
                k1 = gen @ state
                k2 = gen @ (state + 0.5 * dt * k1)
                k3 = gen @ (state + 0.5 * dt * k2)
                k4 = gen @ (state + dt * k3)
                state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        got = integrate_rk4(h, [1.0, -0.3], times, 1e-3)[-1]
        assert np.array_equal(got, state)

    def test_generator_stack_steps_each_generator(self):
        hs = np.array([hamiltonian(p) for p in (BP_REF, UP_REF, EP_REF, GAIN_REF)])
        grid = np.array([0.0, 0.25, 0.7, 1.0])
        stacked = integrate_rk4(hs, np.broadcast_to(np.eye(2), (len(hs), 2, 2)), grid, 1e-2)
        assert stacked.shape == (4, len(hs), 2, 2)
        for j, h in enumerate(hs):
            np.testing.assert_allclose(
                stacked[:, j], integrate_rk4(h, np.eye(2), grid, 1e-2), rtol=1e-14, atol=0
            )

    def test_matrix_state_steps_each_column(self):
        h = hamiltonian(BP_REF)
        grid = np.array([0.0, 0.25, 0.7, 1.0])
        stacked = integrate_rk4(h, np.eye(2), grid, 1e-2)
        assert stacked.shape == (4, 2, 2)
        for j, column in enumerate(np.eye(2)):
            np.testing.assert_allclose(
                stacked[:, :, j], integrate_rk4(h, column, grid, 1e-2), rtol=1e-14, atol=0
            )


class TestGridCache:
    """evolve_integrated gives each grid the same verdict and states with its cache
    of the last uniform grid warm as cleared."""

    @pytest.fixture(autouse=True)
    def cleared(self, monkeypatch):
        monkeypatch.setattr(nhrlc.dynamics, "_uniform", None)

    @staticmethod
    def outcome(grid):
        """The states' shape and bytes, or the refusal's type and message."""
        try:
            states = evolve_integrated(GAIN_REF, REST, grid, step=1e-3).states
        except ValueError as exc:
            return type(exc), str(exc)
        return states.shape, states.tobytes()

    def test_a_repeat_uniform_grid_is_proved_once(self, monkeypatch):
        grid = uniform_grid(10.0, 0.01)
        calls, linspace = [], np.linspace
        monkeypatch.setattr(np, "linspace", lambda *a, **k: calls.append(a) or linspace(*a, **k))
        first = self.outcome(grid)
        assert self.outcome(grid.copy()) == first  # equal bytes in another array: a hit
        assert len(calls) == 1
        nhrlc.dynamics._uniform = None
        assert self.outcome(grid) == first and len(calls) == 2

    @pytest.mark.parametrize("edit", ["one-ulp", "nan", "inf", "swap", "row"])
    def test_an_edited_grid_gets_the_verdict_of_a_cleared_cache(self, edit):
        grid = uniform_grid(10.0, 0.01)
        edited = grid.copy()
        if edit == "one-ulp":
            edited[500] = np.nextafter(edited[500], np.inf)
        elif edit in ("nan", "inf"):
            edited[500] = float(edit)
        elif edit == "swap":
            edited[[499, 500]] = edited[[500, 499]]
        else:
            edited = edited.reshape(1, -1)  # the uniform grid's bytes in another shape
        expected = self.outcome(edited)
        assert (expected[0] is ValueError) == (edit != "one-ulp")  # one-ulp: the recurrence
        assert self.outcome(edited) == expected  # a refused grid is not stored
        self.outcome(grid)
        assert self.outcome(edited) == expected

    def test_a_late_start_grid_is_never_stored(self):
        late = uniform_grid(10.0, 0.01)[1:]  # with 0 prefixed, bitwise linspace: the doubling
        first = self.outcome(late)
        assert nhrlc.dynamics._uniform is None
        assert self.outcome(late) == first
        full = np.concatenate([[0.0], late])
        loop = integrate_rk4(hamiltonian(GAIN_REF), initial_state(REST, GAIN_REF), full, 1e-3)[1:]
        states = np.frombuffer(first[1]).reshape(first[0])
        assert np.abs(states - loop).max() <= 1e-12 * np.abs(loop).max()


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

    def test_a_nan_time_is_a_grid_mismatch_even_on_one_grid(self):
        grid = np.array([0.0, np.nan, 1.0])
        traj = Trajectory(grid, np.zeros((3, 2)), "a")
        with pytest.raises(GridMismatch):
            compare(traj, traj)

    def test_non_finite_error_placed_at_first_non_finite_distance(self):
        grid = uniform_grid(5.0, 1.0)
        a = Trajectory(times=grid, states=np.zeros((grid.size, 2), dtype=complex), method="a")
        states = np.zeros((grid.size, 2), dtype=complex)
        states[2, 0], states[4, 1] = np.inf, np.nan
        err, at = compare(a, Trajectory(times=grid, states=states, method="b"))
        assert np.isnan(err) and at == 2.0

    def test_finite_states_past_the_square_root_of_the_largest_float(self):
        # squaring these distances would overflow; hypot does not
        grid = uniform_grid(2.0, 1.0)
        big = np.full((grid.size, 2), 1e200, dtype=complex)
        a = Trajectory(times=grid, states=big, method="a")
        b = Trajectory(times=grid, states=-big, method="b")
        err, at = compare(a, b)
        assert err == pytest.approx(2e200 * SQ2, rel=1e-15) and at == 0.0


REAL_POINTS = [BP_REF, UP_REF, EP_REF, GAIN_REF, GAIN_EP]
REAL_IDS = ["BP", "UP", "EP", "gain", "gain-EP"]
REAL_GRIDS = [uniform_grid(10.0, 0.01), np.linspace(0.35, 4.0, 301)]


def all_routes(params, grid):
    """Every route that covers the point, on one grid."""
    routes = [evolve_spectral(params, REST, grid), evolve_integrated(params, REST, grid, step=1e-3)]
    if classify(params) is Phase.BROKEN:
        routes.append(evolve_closed_form(params, REST, grid))
    return routes


class TestRealStates:
    """-iH and Phi(0) are real: every route returns real float64 states."""

    @pytest.mark.parametrize("grid", REAL_GRIDS, ids=["report", "late-start"])
    @pytest.mark.parametrize("params", REAL_POINTS, ids=REAL_IDS)
    def test_every_route_returns_real_contiguous_states(self, params, grid):
        for traj in all_routes(params, grid):
            assert traj.states.dtype == np.float64, traj.method
            assert traj.states.shape == (grid.size, 2) and traj.states.flags.c_contiguous

    @pytest.mark.parametrize("grid", REAL_GRIDS, ids=["report", "late-start"])
    @pytest.mark.parametrize("params", REAL_POINTS, ids=REAL_IDS)
    def test_spectral_states_are_the_real_part_of_the_complex_sum(self, params, grid):
        got = evolve_spectral(params, REST, grid).states
        assert got.tobytes() == complex_spectral_states(params, REST, grid).real.copy().tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sampled_from([1.0, -1.0]),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),
        st.lists(st.floats(min_value=1e-4, max_value=0.5), min_size=0, max_size=60),
    )
    def test_ep_columns_are_bitwise_the_stacked_matmul(self, sign, w0, i0, v0, start, spans):
        # the EP route sums the propagator's columns; the reference applies it by matmul
        params, init = CircuitParams.from_rates(sign * w0, w0), InitialData(i0, v0, 1.0)
        grid = start + np.cumsum(np.concatenate([[0.0], spans])) / w0
        traj = evolve_spectral(params, init, grid)
        assert traj.method == "expm"
        assert traj.states.tobytes() == complex_spectral_states(params, init, grid).real.tobytes()

    @pytest.mark.parametrize("params", REAL_POINTS, ids=REAL_IDS)
    def test_route_pairs_do_not_grow_on_real_states(self, params):
        # dropping the spectral sum's imaginary residue can only shrink a distance
        grid = uniform_grid(10.0, 0.01)
        routes, pairs = cross_check(params, REST, grid)
        complex_routes = {
            name: Trajectory(grid, traj.states.astype(complex), traj.method) for name, traj in routes.items()
        }
        spectral = next(name for name in routes if name in ("spectral", "expm"))
        complex_routes[spectral] = Trajectory(grid, complex_spectral_states(params, REST, grid), spectral)
        before = route_agreement(complex_routes, 1e-3)
        assert [p[:2] for p in pairs] == [p[:2] for p in before]
        for (a, b, err, _, _), (_, _, err_before, _, _) in zip(pairs, before):
            assert err <= err_before, (a, b)

    def test_csv_prints_zero_imaginary_fields(self):
        buf = io.StringIO()
        write_csv(evolve_spectral(BP_REF, REST, uniform_grid(10.0, 0.01)), buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        assert len(rows) == 1001 and all(r[2] == r[4] == "0.0" for r in rows)


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

    @pytest.mark.parametrize("params", [BP_REF, UP_REF, EP_REF, GAIN_REF], ids=["BP", "UP", "EP", "gain"])
    def test_bytes_equal_the_row_writer(self, params):
        grid = uniform_grid(10.0, 1e-3)
        for traj in (
            evolve_spectral(params, REST, grid),
            evolve_integrated(params, REST, grid, step=1e-3),
        ):
            buf = io.StringIO()
            write_csv(traj, buf)
            assert buf.getvalue() == reference_trajectory_csv(traj)

    def test_bytes_equal_the_row_writer_on_overflow(self):
        # omega0*dt = 4 is past RK4's stability limit: the RK states overflow
        # to inf; e^{99.8 t} overflows the spectral phases to inf and NaN
        rk = evolve_integrated(
            CircuitParams.from_rates(0.1, 1.0), REST, uniform_grid(2000.0, 4.0), step=4.0
        )
        assert np.isinf(rk.states.real).sum() == 260 and not np.any(np.isnan(rk.states))
        spectral = evolve_spectral(
            CircuitParams.from_rates(-99.83622419419237, 423.396504510819), REST,
            uniform_grid(10.0, 0.01),
        )
        assert np.any(np.isinf(spectral.states)) and np.any(np.isnan(spectral.states))
        for traj in (rk, spectral):
            buf = io.StringIO()
            write_csv(traj, buf)
            assert buf.getvalue() == reference_trajectory_csv(traj)
            assert ",inf," in buf.getvalue()
        assert ",nan," in buf.getvalue()

    def test_negative_zero_survives(self):
        states = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)]] * 2)
        traj = Trajectory(times=np.array([-0.0, 1.0]), states=states, method="spectral")
        buf = io.StringIO()
        write_csv(traj, buf)
        assert buf.getvalue() == reference_trajectory_csv(traj)
        assert buf.getvalue().splitlines()[1] == "-0.0,-0.0,0.0,0.0,-0.0,spectral"

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    def test_block_edges(self, n):
        assert nhrlc.circuit.CSV_BLOCK == 1024
        grid = np.linspace(0.0, 1e-3 * max(n - 1, 0), n)
        traj = evolve_spectral(GAIN_REF, REST, grid)
        buf = io.StringIO()
        write_csv(traj, buf)
        assert buf.getvalue() == reference_trajectory_csv(traj)
        assert buf.getvalue().count("\n") == n + 1

