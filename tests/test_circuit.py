import warnings

import numpy as np
import pytest

from nhrlc import (
    CircuitParams,
    Phase,
    classify,
    gain_hamiltonian,
    hamiltonian,
    hermitian_split,
    ode_coefficients_2,
    phase_of,
)
from nhrlc.circuit import MAX_ALPHA, MAX_OMEGA0

from helpers import REAL_VALUES, deriv5, rk4_states

SQ2 = np.sqrt(2.0)


class TestCircuitParams:
    # L*C overflows to inf at L = C = 1e200 and at 2**600
    @pytest.mark.parametrize("l,c,omega0", [
        (1.0, 0.25, 2.0), (1e200, 1e200, 1e-200), (2.0**600, 2.0**600, 2.0**-600),
    ])
    def test_from_rlc_exact_rates(self, l, c, omega0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = CircuitParams.from_rlc(2.0, l, c)
        assert p.alpha == 1.0 / l
        assert p.omega0 == omega0
        assert p.resistance == 2.0

    def test_negative_resistance_allowed(self):
        p = CircuitParams.from_rlc(-1.0, 1.0, 1.0)
        assert p.alpha == -0.5

    @pytest.mark.parametrize("r,l,c", [(1.0, 0.0, 1.0), (1.0, 1.0, -2.0)])
    def test_rejects_bad_components(self, r, l, c):
        with pytest.raises(ValueError):
            CircuitParams.from_rlc(r, l, c)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            CircuitParams.from_rates(1.0, -1.0)
        with pytest.raises(ValueError):
            CircuitParams.from_rates(np.inf, 1.0)

    def test_rejects_omega0_whose_square_overflows(self):
        with pytest.raises(ValueError, match="omega0 must be at most"):
            CircuitParams.from_rates(1.0, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lc in (1e-160, 1e-170, 1e-200):
                with pytest.raises(ValueError, match="omega0 must be at most"):
                    CircuitParams.from_rlc(1.0, lc, lc)
        edge = CircuitParams.from_rates(1.0, MAX_OMEGA0)
        assert np.all(np.isfinite(hamiltonian(edge)))

    def test_rejects_alpha_whose_double_overflows(self):
        for alpha in (9e307, -1.7e308):
            with pytest.raises(ValueError, match=r"\|alpha\| must be at most 8.988e\+307"):
                CircuitParams.from_rates(alpha, 1.0)
        with pytest.raises(ValueError, match=r"\|alpha\| must be at most"):
            CircuitParams.from_rlc(1e308, 0.5, 1.0)
        edge = CircuitParams.from_rates(-MAX_ALPHA, 1.0)
        assert np.all(np.isfinite(hamiltonian(edge)))

    @pytest.mark.parametrize("alpha, omega0", [
        (1j, 1.0), (0.5, 1j), (complex(0.5, 0.0), 1.0), (np.complex128(0.5), 1.0), (0.5, np.complex64(1.0)),
    ])
    def test_rejects_complex_rates(self, alpha, omega0):
        # np.isfinite(1j) is True; a complex alpha of modulus omega0 classified as EP
        with pytest.raises(TypeError, match="complex"):
            CircuitParams(alpha=alpha, omega0=omega0)

    @pytest.mark.parametrize("value", REAL_VALUES)
    def test_finite_verdicts_on_real_rates_are_numpys(self, value):
        for kwargs in ({"alpha": value, "omega0": 1.0}, {"alpha": 0.5, "omega0": value}):
            if np.isfinite(value):
                try:
                    CircuitParams(**kwargs)
                except ValueError as exc:  # a sign or overflow refusal, not a finite one
                    assert "finite" not in str(exc)
            else:
                with pytest.raises(ValueError, match="^alpha and omega0 must be finite$"):
                    CircuitParams(**kwargs)


class TestHamiltonian:
    def test_underdamped_reference(self):
        h = hamiltonian(CircuitParams.from_rates(1 / SQ2, 1.0))
        np.testing.assert_allclose(h, 1j * np.array([[0, 1], [-1, -SQ2]]), atol=1e-15)

    def test_lossless_is_hermitian(self):
        h = hamiltonian(CircuitParams.from_rates(0.0, 1.0))
        np.testing.assert_allclose(h, [[0, 1j], [-1j, 0]], atol=0)
        np.testing.assert_allclose(h, h.conj().T, atol=0)

    def test_overdamped_point_and_scalar_ode(self):
        p = CircuitParams.from_rates(5 / 4, 3 / 4)
        h = hamiltonian(p)
        np.testing.assert_allclose(h, 1j * np.array([[0, 1], [-9 / 16, -5 / 2]]), atol=0)
        # integrating i*Phi' = H*Phi must reproduce x'' + 2a x' + w0^2 x = 0
        dt = 1e-3
        ts = np.arange(0.0, 2.0 + dt / 2, dt)
        states = rk4_states(-1j * h, np.array([1.0, 0.3]), ts, dt)
        x1, x2 = states[:, 0], states[:, 1]
        assert np.abs(deriv5(x1, dt) - x2[2:-2]).max() < 1e-10  # x2 = x1'
        residual = deriv5(x2, dt) + 2 * p.alpha * x2[2:-2] + p.omega0 ** 2 * x1[2:-2]
        assert np.abs(residual).max() < 1e-10


class TestGainHamiltonian:
    def test_is_adjoint(self):
        p = CircuitParams.from_rates(1 / SQ2, 1.0)
        np.testing.assert_allclose(gain_hamiltonian(p), hamiltonian(p).conj().T, atol=0)
        np.testing.assert_allclose(
            gain_hamiltonian(p), 1j * np.array([[0, 1], [-1, SQ2]]), atol=1e-15
        )

    def test_lossless_self_adjoint(self):
        p = CircuitParams.from_rates(0.0, 1.0)
        np.testing.assert_allclose(gain_hamiltonian(p), hamiltonian(p), atol=0)

    def test_gain_scalar_equation(self):
        # first component of the adjoint flow obeys y'' - 2a y' + w0^2 y = 0
        p = CircuitParams.from_rates(1 / SQ2, 1.0)
        coeffs = ode_coefficients_2(gain_hamiltonian(p)).coefficients
        np.testing.assert_allclose(coeffs, [1.0, -SQ2, 1.0], atol=1e-14)
        dt = 1e-3
        ts = np.arange(0.0, 2.0 + dt / 2, dt)
        states = rk4_states(-1j * gain_hamiltonian(p), np.array([1.0, 0.2]), ts, dt)
        y1 = states[:, 0]
        dy = deriv5(y1, dt)
        ddy = deriv5(dy, dt)
        residual = ddy - SQ2 * dy[2:-2] + y1[4:-4]
        assert np.abs(residual).max() < 1e-8


class TestHermitianSplit:
    def test_hermitian_input_passes_through(self):
        h = np.array([[1.0, 2j], [-2j, 3.0]])
        herm, anti = hermitian_split(h)
        np.testing.assert_allclose(herm, h, atol=1e-15)
        np.testing.assert_allclose(anti, np.zeros((2, 2)), atol=1e-15)

    def test_lossless_circuit_has_no_anti_part(self):
        h = hamiltonian(CircuitParams.from_rates(0.0, 1.0))
        herm, anti = hermitian_split(h)
        np.testing.assert_allclose(herm, h, atol=1e-15)
        assert np.abs(anti).max() < 1e-15

    def test_symmetry_and_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            herm, anti = hermitian_split(h)
            assert np.abs(herm - herm.conj().T).max() < 1e-14
            assert np.abs(anti + anti.conj().T).max() < 1e-14
            # recombination is exact up to one rounding of the off-diagonals
            np.testing.assert_allclose(herm + anti, h, rtol=0, atol=3e-16)

    @pytest.mark.parametrize("alpha,w0", [(1 / SQ2, 1.0), (0.4, 1.5)])
    def test_anti_part_flow_scalar_ode(self, alpha, w0):
        # second component of the anti-Hermitian flow obeys
        # n'' + 2a n' - (1 - w0^2)^2/4 n = 0; for w0 = 1, n'' + sqrt(2) n' = 0
        _, anti = hermitian_split(hamiltonian(CircuitParams.from_rates(alpha, w0)))
        dt = 1e-3
        ts = np.arange(0.0, 2.0 + dt / 2, dt)
        states = rk4_states(-1j * anti, np.array([0.7, 1.0]), ts, dt)
        eta2 = states[:, 1]
        d1 = deriv5(eta2, dt)
        d2 = deriv5(d1, dt)
        coeff = (1.0 - w0 ** 2) ** 2 / 4.0
        residual = d2 + 2 * alpha * d1[2:-2] - coeff * eta2[4:-4]
        assert np.abs(residual).max() < 1e-8


class TestClassify:
    def test_reference_points(self):
        assert classify(CircuitParams.from_rates(1 / SQ2, 1.0)) is Phase.BROKEN
        assert classify(CircuitParams.from_rates(5 / 4, 3 / 4)) is Phase.UNBROKEN
        assert classify(CircuitParams.from_rates(2.0, 2.0)) is Phase.EXCEPTIONAL

    def test_band_edges(self):
        assert classify(CircuitParams.from_rates(1.0 + 1e-13, 1.0)) is Phase.EXCEPTIONAL
        assert classify(CircuitParams.from_rates(1.0 + 1e-10, 1.0)) is Phase.UNBROKEN
        assert classify(CircuitParams.from_rates(1.0 - 1e-10, 1.0)) is Phase.BROKEN

    @pytest.mark.parametrize(
        "ratio", [0.0, 0.3, 1.0 - 1e-10, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.0 + 1e-10, 2.0, 1e6]
    )
    def test_gain_side_classifies_on_abs_alpha(self, ratio):
        for omega0 in (1e-3, 1.0, 1e3):
            assert phase_of(-ratio * omega0, omega0) is phase_of(ratio * omega0, omega0)
        assert phase_of(-2.0, 1.0) is Phase.UNBROKEN and phase_of(-1.0, 1.0) is Phase.EXCEPTIONAL

    def test_classify_is_phase_of_the_rates(self):
        for alpha in (-2.0, -1.0, 0.0, 1.0 - 1e-10, 1.0 - 1e-13, 1.0, 1.0 + 1e-12, 3.0):
            params = CircuitParams.from_rates(alpha, 1.0)
            assert classify(params) is phase_of(alpha, 1.0)
        assert phase_of(1e4, 1e4) is Phase.EXCEPTIONAL


class TestAlgebraicProperties:
    def test_split_recombination(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = CircuitParams.from_rates(rng.uniform(0, 3), rng.uniform(0.05, 3))
            h = hamiltonian(p)
            herm, _ = hermitian_split(h)
            np.testing.assert_array_equal(h + gain_hamiltonian(p), 2.0 * herm)

    def test_trace_and_det_closed_forms(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            p = CircuitParams.from_rates(rng.uniform(0, 3), rng.uniform(0.05, 3))
            h = hamiltonian(p)
            assert h[0, 0] + h[1, 1] == -2j * p.alpha
            det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
            assert det == -p.omega0 ** 2

    def test_classify_invariant_under_component_rescaling(self):
        # (R, L, C) -> (kR, kL, C/k) preserves alpha and omega0
        rng = np.random.default_rng(12)
        for _ in range(50):
            r, l, c = rng.uniform(0.1, 5, size=3)
            k = rng.uniform(0.1, 10)
            p0 = CircuitParams.from_rlc(r, l, c)
            p1 = CircuitParams.from_rlc(k * r, k * l, c / k)
            assert abs(p0.alpha - p1.alpha) < 1e-12 * (1 + abs(p0.alpha))
            assert abs(p0.omega0 - p1.omega0) < 1e-12 * p0.omega0
            assert classify(p0) is classify(p1)
