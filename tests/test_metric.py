import numpy as np
import pytest

from nhrlc import (
    CircuitParams,
    MetricPair,
    Phase,
    antilinear_u,
    eig2,
    eigensystem,
    gain_hamiltonian,
    hamiltonian,
    metric_pair,
    ode_coefficients_2,
    positive_pair,
    similar_hamiltonian,
    similar_hamiltonian_via_u,
    solve_intertwiners,
    sqrt_pos_hermitian,
    trace_det,
    verify_intertwining,
)

from helpers import balanced_residual, draw_params

SQ2 = np.sqrt(2.0)

BP_REF = CircuitParams.from_rates(1 / SQ2, 1.0)
UP_REF = CircuitParams.from_rates(5 / 4, 3 / 4)
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


def basis_pairs(alpha):
    """H, H^dag at (alpha, 1) against each other, themselves and I; a shear; 5 random pairs."""
    params = CircuitParams.from_rates(alpha, 1.0)
    h, hd = hamiltonian(params), gain_hamiltonian(params)
    rng = np.random.default_rng(19)
    pairs = [(h, hd), (hd, h), (h, h), (h, np.eye(2)), (SHEAR, np.eye(2))]
    return pairs + [rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)) for _ in range(5)]


class TestMetricPair:
    def test_underdamped_reference_matrices(self):
        pair = metric_pair(eigensystem(BP_REF))
        assert pair.kind == "S"
        np.testing.assert_allclose(
            pair.s_phi, [[1.0, -1 / SQ2], [-1 / SQ2, 1.0]], atol=1e-12
        )
        np.testing.assert_allclose(pair.s_psi, [[2.0, SQ2], [SQ2, 2.0]], atol=1e-12)

    def test_mutually_inverse(self):
        pair = metric_pair(eigensystem(BP_REF))
        np.testing.assert_allclose(pair.s_phi @ pair.s_psi, np.eye(2), atol=1e-12)

    def test_positive_hermitian_in_broken_phase(self):
        pair = metric_pair(eigensystem(BP_REF))
        for m in (pair.s_phi, pair.s_psi):
            assert np.abs(m - m.conj().T).max() < 1e-14
            sqrt_pos_hermitian(m)  # raises if not positive

    def test_overdamped_crossed_pair_maps_families(self):
        sys_ = eigensystem(UP_REF)
        pair = metric_pair(sys_)
        assert pair.kind == "T"
        assert np.linalg.norm(pair.s_phi @ sys_.psi_plus - sys_.phi_plus) < 1e-12
        assert np.linalg.norm(pair.s_phi @ sys_.psi_minus - sys_.phi_minus) < 1e-12
        assert np.linalg.norm(pair.s_psi @ sys_.phi_plus - sys_.psi_plus) < 1e-12
        assert np.linalg.norm(pair.s_psi @ sys_.phi_minus - sys_.psi_minus) < 1e-12
        np.testing.assert_allclose(pair.s_phi @ pair.s_psi, np.eye(2), atol=1e-12)

    def test_positive_pair_in_overdamped_phase(self):
        sys_ = eigensystem(UP_REF)
        pair = positive_pair(sys_)
        assert pair.kind == "S"
        np.testing.assert_allclose(pair.s_phi @ pair.s_psi, np.eye(2), atol=1e-12)
        # crossed mapping in this phase
        assert np.linalg.norm(pair.s_phi @ sys_.psi_plus - sys_.phi_minus) < 1e-12
        sqrt_pos_hermitian(pair.s_phi)
        sqrt_pos_hermitian(pair.s_psi)


class TestSimilarHamiltonian:
    def test_underdamped_reference(self):
        sys_ = eigensystem(BP_REF)
        h = similar_hamiltonian(sys_, metric_pair(sys_), hamiltonian(BP_REF))
        np.testing.assert_allclose(h, 1j * np.array([[-SQ2, 1], [-1, 0]]), atol=1e-12)

    def test_hermitian_limit_identity_transform(self):
        params = CircuitParams.from_rates(0.0, 1.0)
        sys_ = eigensystem(params)
        h = similar_hamiltonian(sys_, metric_pair(sys_), hamiltonian(params))
        np.testing.assert_allclose(h, hamiltonian(params), atol=1e-13)

    def test_trace_det_preserved(self):
        sys_ = eigensystem(UP_REF)
        h0 = hamiltonian(UP_REF)
        h1 = similar_hamiltonian(sys_, metric_pair(sys_), h0)
        tr0, det0 = trace_det(h0)
        tr1, det1 = trace_det(h1)
        assert abs(tr0 - tr1) < 1e-12 and abs(det0 - det1) < 1e-12

    @pytest.mark.parametrize("params", [BP_REF, UP_REF])
    def test_eigenvector_exchange(self, params):
        # h keeps the eigenvalues of H but carries them on the psi family;
        # its adjoint has the phi family with the mu eigenvalues
        sys_ = eigensystem(params)
        h = similar_hamiltonian(sys_, metric_pair(sys_), hamiltonian(params))
        assert np.linalg.norm(h @ sys_.psi_plus - sys_.lambda_plus * sys_.psi_plus) < 1e-12
        assert np.linalg.norm(h @ sys_.psi_minus - sys_.lambda_minus * sys_.psi_minus) < 1e-12
        hd = h.conj().T
        assert np.linalg.norm(hd @ sys_.phi_plus - sys_.mu_plus * sys_.phi_plus) < 1e-12
        assert np.linalg.norm(hd @ sys_.phi_minus - sys_.mu_minus * sys_.phi_minus) < 1e-12

    def test_same_scalar_equation_as_original(self):
        # the similar generator drives the same damped-current equation
        sys_ = eigensystem(BP_REF)
        h = similar_hamiltonian(sys_, metric_pair(sys_), hamiltonian(BP_REF))
        np.testing.assert_allclose(
            ode_coefficients_2(h).coefficients, [1.0, SQ2, 1.0], atol=1e-12
        )
        np.testing.assert_allclose(
            ode_coefficients_2(gain_hamiltonian(BP_REF)).coefficients,
            np.conj(ode_coefficients_2(h.conj().T).coefficients),
            atol=1e-12,
        )

    @pytest.mark.parametrize("alpha, omega0", [(1 / SQ2, 1.0), (5 / 4, 3 / 4), (-0.4, 1.0)])
    def test_closed_form_is_adjoint_plus_trace(self, alpha, omega0):
        # mu_pm = -lambda_mp, so H^dag + tr(H) I has the eigenpairs (lambda_a, psi_a)
        params = CircuitParams.from_rates(alpha, omega0)
        sys_ = eigensystem(params)
        h0 = hamiltonian(params)
        h = similar_hamiltonian(sys_, metric_pair(sys_), h0)
        np.testing.assert_array_equal(h, h0.conj().T + np.trace(h0) * np.eye(2))

    def test_intertwining_exact_near_the_exceptional_point(self):
        params = CircuitParams.from_rates(0.999, 1.0)
        sys_ = eigensystem(params)
        pair = metric_pair(sys_)
        h0 = hamiltonian(params)
        report = verify_intertwining(h0, similar_hamiltonian(sys_, pair, h0), pair)
        assert max(report.residual_h_sphi, report.residual_spsi_h, report.residual_adjoint) < 1e-12


class TestAntilinearU:
    def test_fixes_psi_in_broken_phase(self):
        sys_ = eigensystem(BP_REF)
        assert np.linalg.norm(antilinear_u(sys_, sys_.psi_plus) - sys_.psi_plus) < 1e-12

    def test_conjugates_scalars(self):
        sys_ = eigensystem(BP_REF)
        out = antilinear_u(sys_, 1j * sys_.psi_plus)
        assert np.linalg.norm(out + 1j * sys_.psi_plus) < 1e-12
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = complex(rng.normal(), rng.normal())
            f = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert np.linalg.norm(
                antilinear_u(sys_, c * f) - np.conj(c) * antilinear_u(sys_, f)
            ) < 1e-12

    def test_swaps_psi_in_overdamped_phase(self):
        sys_ = eigensystem(UP_REF)
        assert np.linalg.norm(antilinear_u(sys_, sys_.psi_plus) - sys_.psi_minus) < 1e-12
        assert np.linalg.norm(antilinear_u(sys_, sys_.psi_minus) - sys_.psi_plus) < 1e-12

    @pytest.mark.parametrize("params", [BP_REF, UP_REF])
    def test_involutive_on_real_psi_combinations(self, params):
        rng = np.random.default_rng(6)
        sys_ = eigensystem(params)
        for _ in range(10):
            f = rng.normal() * sys_.psi_plus + rng.normal() * sys_.psi_minus
            assert np.linalg.norm(antilinear_u(sys_, antilinear_u(sys_, f)) - f) < 1e-12


class TestSimilarViaU:
    def test_underdamped_reference(self):
        sys_ = eigensystem(BP_REF)
        h = similar_hamiltonian_via_u(sys_, gain_hamiltonian(BP_REF))
        np.testing.assert_allclose(h, 1j * np.array([[-SQ2, 1], [-1, 0]]), atol=1e-12)

    def test_hermitian_limit(self):
        params = CircuitParams.from_rates(0.0, 1.0)
        sys_ = eigensystem(params)
        np.testing.assert_allclose(
            similar_hamiltonian_via_u(sys_, gain_hamiltonian(params)),
            hamiltonian(params),
            atol=1e-13,
        )

    @pytest.mark.parametrize("params", [BP_REF, UP_REF])
    def test_both_routes_agree(self, params):
        sys_ = eigensystem(params)
        h0 = hamiltonian(params)
        route_metric = similar_hamiltonian(sys_, metric_pair(sys_), h0)
        route_u = similar_hamiltonian_via_u(sys_, h0.conj().T)
        assert np.abs(route_metric - route_u).max() < 1e-12


class TestVerifyIntertwining:
    def test_reference_triple(self):
        sys_ = eigensystem(BP_REF)
        pair = metric_pair(sys_)
        h0 = hamiltonian(BP_REF)
        report = verify_intertwining(h0, similar_hamiltonian(sys_, pair, h0), pair)
        assert report.residual_h_sphi < 1e-12
        assert report.residual_spsi_h < 1e-12
        assert report.residual_adjoint < 1e-12

    def test_trivial_pair(self):
        h0 = hamiltonian(BP_REF)
        pair = MetricPair(s_phi=np.eye(2, dtype=complex), s_psi=np.eye(2, dtype=complex), kind="S")
        report = verify_intertwining(h0, h0, pair)
        assert report.residual_h_sphi == 0.0
        assert report.residual_spsi_h == 0.0
        assert report.residual_adjoint == 0.0

    def test_detects_perturbation(self):
        sys_ = eigensystem(BP_REF)
        pair = metric_pair(sys_)
        h0 = hamiltonian(BP_REF)
        h1 = similar_hamiltonian(sys_, pair, h0).copy()
        h1[0, 0] += 1e-3
        report = verify_intertwining(h0, h1, pair)
        assert 1e-4 < report.residual_h_sphi < 1e-2


class TestSolveIntertwiners:
    def test_no_intertwiner_between_h_and_adjoint(self):
        basis = solve_intertwiners(hamiltonian(BP_REF), gain_hamiltonian(BP_REF))
        assert basis == []

    def test_shear_and_identity(self):
        basis = solve_intertwiners(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
        assert len(basis) == 2
        for x in basis:
            # solutions have vanishing second row
            assert np.abs(x[1]).max() < 1e-10
            assert np.abs(np.array([[1.0, 1.0], [0.0, 1.0]]) @ x - x).max() < 1e-10

    def test_reversed_orientation_by_argument_swap(self):
        # X A = B X solutions via solve_intertwiners(B, A)
        a = np.eye(2)
        b = np.array([[1.0, 1.0], [0.0, 1.0]])
        basis = solve_intertwiners(b, a)
        assert len(basis) == 2
        for x in basis:
            assert np.abs(b @ x - x @ a).max() < 1e-10

    def test_rank_deficient_intertwined_family(self):
        h_a = np.array([[2.0, 3.0], [0.0, 5.0]])
        h_b = np.array([[1.0, 2.0], [1.0, 0.0]])
        basis = solve_intertwiners(h_a, h_b)
        assert len(basis) >= 1
        witness = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert np.abs(h_a @ witness - witness @ h_b).max() < 1e-12
        # the witness lies in the span of the returned basis
        stacked = np.column_stack([x.reshape(-1) for x in basis])
        coeffs, residual, *_ = np.linalg.lstsq(stacked, witness.reshape(-1), rcond=None)
        rebuilt = stacked @ coeffs
        assert np.abs(rebuilt - witness.reshape(-1)).max() < 1e-10

    def test_dimension_tracks_shared_eigenvalues(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = rng.normal(size=(2, 2)) + np.eye(2) * 2
            q = rng.normal(size=(2, 2)) + np.eye(2) * 2
            if abs(np.linalg.det(p)) < 0.2 or abs(np.linalg.det(q)) < 0.2:
                continue
            disjoint = p @ np.diag([1.0, 2.0]) @ np.linalg.inv(p)
            other = q @ np.diag([3.0, 4.0]) @ np.linalg.inv(q)
            shared = q @ np.diag([2.0, 5.0]) @ np.linalg.inv(q)
            assert len(solve_intertwiners(disjoint, other)) == 0
            assert len(solve_intertwiners(disjoint, shared)) >= 1

    def test_no_intertwiner_on_random_underdamped_draws(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            params = draw_params(rng, Phase.BROKEN)
            assert solve_intertwiners(hamiltonian(params), gain_hamiltonian(params)) == []

    def test_no_intertwiner_for_a_root_near_a_scalar(self):
        # p_I(x) = (x - 1)^2 is about 1e-18 at H's root near 1, yet that root is 1e-9 from 1
        assert solve_intertwiners(hamiltonian(CircuitParams.from_rates(1e-9, 1.0)), np.eye(2)) == []

    @pytest.mark.parametrize("d", [1e-7, 1e-8])
    def test_root_beside_a_near_double_root(self, d):
        # diag(1, 1 + d) shares its root 1 exactly with diag(1, 5), with I, and with the
        # shear's Jordan block, which gives one dimension; 1 + d/2 is d/2 from both roots
        near = np.diag([1.0, 1.0 + d])
        cases = ((np.diag([1.0, 5.0]), 1), (np.eye(2), 2), (SHEAR, 1), (np.diag([1 + d / 2, 5.0]), 0))
        for b, dim in cases:
            basis = solve_intertwiners(near, b)
            assert len(basis) == dim
            for x in basis:
                assert balanced_residual(near, b, x) <= 1e-14

    def test_exact_double_root_with_a_rounded_discriminant(self):
        # t^2 = -x y exactly on these Gaussian integers, so m is A's only root, a double one;
        # the products round, and the balanced discriminant comes out near 2e-16 instead of 0
        al, be, m = 15186 + 14663j, 15476 + 10389j, -7.0
        a = np.array([[m + al * be, al * al], [-(be * be), m - al * be]])
        b = np.diag([m, 1e9])
        basis = solve_intertwiners(a, b)
        assert len(basis) == 1
        assert balanced_residual(a, b, basis[0]) <= 1e-14

    @pytest.mark.parametrize(
        "alpha", [0.3, 1 / SQ2, 1.25, 3.0, -0.3, -0.999, 1 - 1e-6, 1 + 1e-6, 1 - 1e-9, 1 + 1e-9]
    )
    def test_basis_solves_the_balanced_system_to_rounding(self, alpha):
        # basis_pairs: H against H^dag either way, H against itself and I, the shear against I
        dims = [len(solve_intertwiners(a, b)) for a, b in basis_pairs(alpha)]
        assert dims == [0, 0, 2, 0, 2, 0, 0, 0, 0, 0]
        rng = np.random.default_rng(17)
        h_a, h_b = np.array([[2.0, 3.0], [0.0, 5.0]]), np.array([[1.0, 2.0], [1.0, 0.0]])
        pairs = basis_pairs(alpha) + [(h_a, h_b), (h_b, h_a), (np.eye(2), SHEAR)]
        for _ in range(10):
            p = rng.normal(size=(2, 2)) + np.eye(2) * 2
            shared = p @ np.diag([2.0, 5.0]) @ np.linalg.inv(p)
            pairs += [(np.diag([1.0, 2.0]), shared), (shared, shared), (shared, 2.0 * np.eye(2))]
        for a, b in pairs:
            for x in solve_intertwiners(a, b):
                assert balanced_residual(a, b, x) <= 1e-14


class TestRandomDrawProperties:
    def test_broken_phase_pairs(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            sys_ = eigensystem(draw_params(rng, Phase.BROKEN))
            pair = metric_pair(sys_)
            assert np.abs(pair.s_phi - pair.s_phi.conj().T).max() < 1e-13
            sqrt_pos_hermitian(pair.s_phi)
            sqrt_pos_hermitian(pair.s_psi)
            assert np.abs(pair.s_phi @ pair.s_psi - np.eye(2)).max() < 1e-11

    @pytest.mark.parametrize("phase", [Phase.BROKEN, Phase.UNBROKEN])
    def test_similar_hamiltonian_isospectral(self, phase):
        rng = np.random.default_rng(20)
        for _ in range(50):
            params = draw_params(rng, phase)
            sys_ = eigensystem(params)
            h0 = hamiltonian(params)
            h1 = similar_hamiltonian(sys_, metric_pair(sys_), h0)
            vals0, _, _ = eig2(h0)
            vals1, _, _ = eig2(h1)
            scale = 1.0 + abs(vals0[0]) + abs(vals0[1])
            assert abs(vals0[0] - vals1[0]) < 1e-11 * scale
            assert abs(vals0[1] - vals1[1]) < 1e-11 * scale
            tr0, det0 = trace_det(h0)
            tr1, det1 = trace_det(h1)
            assert abs(tr0 - tr1) < 1e-11 * scale
            assert abs(det0 - det1) < 1e-11 * scale ** 2
