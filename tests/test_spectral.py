import numpy as np
import pytest

from nhrlc import (
    CircuitParams,
    ExceptionalPointError,
    NotExceptionalError,
    Phase,
    eig2,
    eigensystem,
    ep_system,
    expand,
    hamiltonian,
    modes,
    pairing,
)

SQ2 = np.sqrt(2.0)

BP_REF = CircuitParams.from_rates(1 / SQ2, 1.0)
UP_REF = CircuitParams.from_rates(5 / 4, 3 / 4)


class TestUnderdampedReference:
    def test_eigenvalues(self):
        sys_ = eigensystem(BP_REF)
        assert abs(sys_.lambda_plus - (1 - 1j) / SQ2) < 1e-14
        assert abs(sys_.lambda_minus - (-1 - 1j) / SQ2) < 1e-14
        assert abs(sys_.mu_plus - (1 + 1j) / SQ2) < 1e-14
        assert abs(sys_.mu_minus - (-1 + 1j) / SQ2) < 1e-14

    def test_normalization_products(self):
        sys_ = eigensystem(BP_REF)
        assert abs(np.conj(sys_.n_phi_plus) * sys_.n_psi_plus - (1 - 1j) / 2) < 1e-14
        assert abs(np.conj(sys_.n_phi_minus) * sys_.n_psi_minus - (1 + 1j) / 2) < 1e-14

    def test_pairing_pattern(self):
        sys_ = eigensystem(BP_REF)
        assert abs(sys_.n_pp - 1) < 1e-14 and abs(sys_.n_mm - 1) < 1e-14
        assert abs(sys_.n_pm) < 1e-14 and abs(sys_.n_mp) < 1e-14

    def test_conjugation_relation(self):
        sys_ = eigensystem(BP_REF)
        assert abs(sys_.lambda_plus - np.conj(sys_.mu_plus)) < 1e-14
        assert abs(sys_.lambda_minus - np.conj(sys_.mu_minus)) < 1e-14


class TestOverdampedReference:
    def test_eigenvalues(self):
        sys_ = eigensystem(UP_REF)
        assert abs(sys_.lambda_plus - (-0.25j)) < 1e-14
        assert abs(sys_.lambda_minus - (-2.25j)) < 1e-14
        assert abs(sys_.mu_plus - 2.25j) < 1e-14
        assert abs(sys_.mu_minus - 0.25j) < 1e-14

    def test_normalization_products(self):
        # crossed products; oracle below re-derives them from the raw vectors
        sys_ = eigensystem(UP_REF)
        assert abs(np.conj(sys_.n_phi_minus) * sys_.n_psi_plus - (-0.125)) < 1e-14
        assert abs(np.conj(sys_.n_phi_plus) * sys_.n_psi_minus - 1.125) < 1e-14

    def test_crossed_pairing_oracle(self):
        # direct inner-product evaluation: <phi-, psi+> = N * (1 + (-9/4)*4)
        sys_ = eigensystem(UP_REF)
        raw = 1.0 + np.conj(-1j * sys_.lambda_minus) * (-1j * sys_.mu_plus) / UP_REF.omega0 ** 2
        assert abs(np.conj(sys_.n_phi_minus) * raw - 1.0) < 1e-13
        assert abs(sys_.n_mp - 1.0) < 1e-14

    def test_pairing_pattern(self):
        sys_ = eigensystem(UP_REF)
        assert abs(sys_.n_pm - 1) < 1e-14 and abs(sys_.n_mp - 1) < 1e-14
        assert abs(sys_.n_pp) < 1e-14 and abs(sys_.n_mm) < 1e-14

    def test_conjugation_relation(self):
        sys_ = eigensystem(UP_REF)
        assert abs(sys_.lambda_plus - np.conj(sys_.mu_minus)) < 1e-14
        assert abs(sys_.lambda_minus - np.conj(sys_.mu_plus)) < 1e-14


class TestLosslessLimit:
    def test_real_spectrum_and_orthogonality(self):
        sys_ = eigensystem(CircuitParams.from_rates(0.0, 1.0))
        assert abs(sys_.lambda_plus - 1.0) < 1e-14
        assert abs(sys_.lambda_minus + 1.0) < 1e-14
        assert abs(sys_.mu_plus - 1.0) < 1e-14
        assert abs(sys_.mu_minus + 1.0) < 1e-14
        assert abs(sys_.n_pp - 1) < 1e-14 and abs(sys_.n_pm) < 1e-14
        # the phi family itself is orthogonal in the Hermitian limit
        assert abs(pairing(sys_.phi_plus, sys_.phi_minus)) < 1e-14


class TestEigenvectorDefinition:
    @pytest.mark.parametrize("params", [BP_REF, UP_REF])
    def test_eigenvector_residuals(self, params):
        sys_ = eigensystem(params)
        h = hamiltonian(params)
        hd = h.conj().T
        assert np.linalg.norm(h @ sys_.phi_plus - sys_.lambda_plus * sys_.phi_plus) < 1e-12
        assert np.linalg.norm(h @ sys_.phi_minus - sys_.lambda_minus * sys_.phi_minus) < 1e-12
        assert np.linalg.norm(hd @ sys_.psi_plus - sys_.mu_plus * sys_.psi_plus) < 1e-12
        assert np.linalg.norm(hd @ sys_.psi_minus - sys_.mu_minus * sys_.psi_minus) < 1e-12

    @pytest.mark.parametrize("params", [BP_REF, UP_REF])
    def test_matches_generic_eigensolver(self, params):
        values, _, _ = eig2(hamiltonian(params))
        sys_ = eigensystem(params)
        assert abs(values[0] - sys_.lambda_plus) < 1e-12
        assert abs(values[1] - sys_.lambda_minus) < 1e-12


class TestExceptionalSystem:
    def test_reference_point(self):
        ep = ep_system(CircuitParams.from_rates(2.0, 2.0))
        assert abs(ep.lambda_ep + 2j) < 1e-14
        assert abs(ep.mu_ep - 2j) < 1e-14
        np.testing.assert_allclose(ep.phi_ep, [1.0, -2.0], atol=1e-14)
        np.testing.assert_allclose(ep.psi_ep, [1.0, 0.5], atol=1e-14)
        assert abs(ep.self_orthogonality) < 1e-12

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_self_orthogonality_forced(self, alpha):
        ep = ep_system(CircuitParams.from_rates(alpha, alpha))
        assert abs(ep.self_orthogonality) < 1e-12

    def test_coalesced_vectors_are_eigenvectors(self):
        params = CircuitParams.from_rates(1.0, 1.0)
        ep = ep_system(params)
        h = hamiltonian(params)
        assert np.linalg.norm(h @ ep.phi_ep - ep.lambda_ep * ep.phi_ep) < 1e-12
        assert np.linalg.norm(h.conj().T @ ep.psi_ep - ep.mu_ep * ep.psi_ep) < 1e-12

    def test_errors(self):
        with pytest.raises(ExceptionalPointError):
            eigensystem(CircuitParams.from_rates(2.0, 2.0))
        with pytest.raises(NotExceptionalError):
            ep_system(BP_REF)

    def test_gain_overdamped_rejected(self):
        with pytest.raises(ValueError):
            eigensystem(CircuitParams.from_rates(-2.0, 1.0))


class TestExpand:
    def test_basis_vector(self):
        sys_ = eigensystem(BP_REF)
        b_plus, b_minus = expand(sys_, sys_.phi_plus)
        assert abs(b_plus - 1.0) < 1e-13 and abs(b_minus) < 1e-13

    def test_zero_vector(self):
        sys_ = eigensystem(UP_REF)
        b_plus, b_minus = expand(sys_, np.zeros(2))
        assert b_plus == 0 and b_minus == 0

    @pytest.mark.parametrize("params", [BP_REF, UP_REF])
    def test_reconstruction_residual(self, params):
        sys_ = eigensystem(params)
        f = np.array([1.0, 0.0], dtype=complex)
        b_plus, b_minus = expand(sys_, f)
        assert np.linalg.norm(b_plus * sys_.phi_plus + b_minus * sys_.phi_minus - f) < 1e-12

    @pytest.mark.parametrize("params", [BP_REF, UP_REF])
    def test_against_linear_solve_oracle(self, params):
        rng = np.random.default_rng(21)
        sys_ = eigensystem(params)
        basis = np.column_stack([sys_.phi_plus, sys_.phi_minus])
        for _ in range(10):
            f = rng.normal(size=2) + 1j * rng.normal(size=2)
            coeffs = np.linalg.solve(basis, f)
            b_plus, b_minus = expand(sys_, f)
            assert abs(b_plus - coeffs[0]) < 1e-12
            assert abs(b_minus - coeffs[1]) < 1e-12


class TestFamilyProperties:
    def _outer(self, f, g):
        return np.outer(f, np.conj(g))

    def test_resolution_of_identity(self):
        from helpers import draw_params

        rng = np.random.default_rng(31)
        for phase in (Phase.BROKEN, Phase.UNBROKEN):
            for _ in range(200):
                sys_ = eigensystem(draw_params(rng, phase))
                if phase is Phase.BROKEN:
                    resolution = self._outer(sys_.phi_plus, sys_.psi_plus) + self._outer(
                        sys_.phi_minus, sys_.psi_minus
                    )
                else:
                    resolution = self._outer(sys_.phi_minus, sys_.psi_plus) + self._outer(
                        sys_.phi_plus, sys_.psi_minus
                    )
                assert np.abs(resolution - np.eye(2)).max() < 1e-12

    def test_vieta(self):
        from helpers import draw_params

        rng = np.random.default_rng(32)
        for phase in (Phase.BROKEN, Phase.UNBROKEN):
            for _ in range(100):
                params = draw_params(rng, phase)
                sys_ = eigensystem(params)
                scale = 1.0 + params.alpha ** 2 + params.omega0 ** 2
                assert abs(sys_.lambda_plus * sys_.lambda_minus + params.omega0 ** 2) < 1e-12 * scale
                assert abs(sys_.lambda_plus + sys_.lambda_minus + 2j * params.alpha) < 1e-12 * scale

    def test_gap_closes_towards_coalescence(self):
        w0 = 1.0
        gaps_below = [
            abs(
                eigensystem(CircuitParams.from_rates(a, w0)).lambda_plus
                - eigensystem(CircuitParams.from_rates(a, w0)).lambda_minus
            )
            for a in np.linspace(0.2, 0.999, 40)
        ]
        assert all(x > y for x, y in zip(gaps_below, gaps_below[1:]))
        gaps_above = [
            abs(
                eigensystem(CircuitParams.from_rates(a, w0)).lambda_plus
                - eigensystem(CircuitParams.from_rates(a, w0)).lambda_minus
            )
            for a in np.linspace(1.001, 2.0, 40)
        ]
        assert all(x < y for x, y in zip(gaps_above, gaps_above[1:]))


class TestModes:
    FIELDS = ("lambda_plus", "lambda_minus", "mu_plus", "mu_minus", "n_phi_plus", "n_phi_minus")

    def test_arrays_match_scalar_eigensystem(self):
        # BP with loss and gain, UP, and points near both sides of the EP
        alphas = np.array([0.0, 0.3, 0.999, -0.3, -0.999, 1.001, 1.25, 3.0, 40.0])
        for w0 in (0.75, 1.0, 1e4):
            grid = modes(alphas * w0, w0)
            for k, alpha in enumerate(alphas * w0):
                sys_ = eigensystem(CircuitParams.from_rates(alpha, w0))
                for field in self.FIELDS:
                    assert getattr(grid, field)[k] == getattr(sys_, field), (alpha, w0, field)

    @pytest.mark.parametrize("alpha", [-1.5, -3.0, -40.0])
    def test_gain_overdamped_matches_generic_eigensolver(self, alpha):
        got = modes(alpha, 1.0)
        values, _, _ = eig2(hamiltonian(CircuitParams.from_rates(alpha, 1.0)))
        assert abs(got.lambda_plus - values[0]) < 1e-14 * abs(alpha)
        assert abs(got.lambda_minus - values[1]) < 1e-14 * abs(alpha)

    @pytest.mark.parametrize("alpha", [1e8, 1e300])
    def test_no_cancellation_or_overflow(self, alpha):
        # alpha - sqrt(alpha^2 - 1) ~ 1/(2 alpha) loses every digit when
        # subtracted, and alpha^2 overflows past 1e154
        got = modes(np.array([alpha, -alpha]), 1.0)
        np.testing.assert_allclose(got.lambda_plus, [-0.5j / alpha, 2j * alpha], rtol=1e-15)
        np.testing.assert_allclose(got.lambda_minus, [-2j * alpha, 0.5j / alpha], rtol=1e-15)

    def test_exceptional_point_is_warning_free(self):
        got = modes(np.array([1.0, -1.0]), 1.0)
        np.testing.assert_array_equal(got.lambda_plus, got.lambda_minus)
        assert not np.any(np.isfinite(got.n_phi_plus))

    def test_no_negative_zeros(self):
        got = modes(np.array([0.0, 2.0, -2.0]), 1.0)
        for field in self.FIELDS[:4]:
            values = getattr(got, field)
            assert not np.any(np.signbit(values.real) & (values.real == 0)), field
            assert not np.any(np.signbit(values.imag) & (values.imag == 0)), field
