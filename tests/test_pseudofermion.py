import warnings

import numpy as np
import pytest

from nhrlc import (
    CircuitParams,
    ExceptionalPointError,
    ExistenceViolation,
    NotPositiveHermitian,
    Phase,
    eig2,
    eigensystem,
    fermionize,
    hamiltonian,
    hpf_build,
    ladder_check,
    metric_pair,
    pf_construct,
    pf_identify,
    positive_pair,
    pt_check,
    pt_probe,
    sqrt_pos_hermitian,
    susy_partner,
)
from nhrlc.pseudofermion import PT_PROBES

from helpers import draw_params, ladder_reference

SQ2 = np.sqrt(2.0)

BP_REF = CircuitParams.from_rates(1 / SQ2, 1.0)
UP_REF = CircuitParams.from_rates(5 / 4, 3 / 4)

EYE = np.eye(2, dtype=complex)
EPS = np.finfo(float).eps

# BP, UP, gain BP, and both sides of the EP at relative distances 1e-6 and 1e-9
EQUIVALENCE_POINTS = [
    CircuitParams.from_rates(alpha, 1.0)
    for alpha in (0.3, 1.25, 3.0, -0.3, -0.999, 1 - 1e-6, 1 + 1e-6, 1 - 1e-9, 1 + 1e-9)
] + [BP_REF, UP_REF]


def anticommutator(x, y):
    return x @ y + y @ x


class TestConstruct:
    def test_valid_pair_from_overdamped_values(self):
        # a = 9/4, b = 1/4 with gamma = 1/2 realized by a12 = 1, b12 = -1/4
        pf = pf_construct(9 / 4, 1 / 4, 1.0, -0.25)
        assert abs(pf.gamma - 0.5) < 1e-14
        np.testing.assert_allclose(anticommutator(pf.c_op, pf.cc_op), EYE, atol=1e-13)
        assert np.abs(pf.c_op @ pf.c_op).max() < 1e-13
        assert np.abs(pf.cc_op @ pf.cc_op).max() < 1e-13

    def test_equal_parameters_violate_existence(self):
        with pytest.raises(ExistenceViolation):
            pf_construct(2.0, 2.0, 1.0, 1.0)

    def test_wrong_scaling_violates_existence(self):
        with pytest.raises(ExistenceViolation):
            pf_construct(1.0, 0.0, 1.0, 1.0)  # (a-b)*gamma = -1

    def test_non_finite_parameters_violate_existence(self):
        for bad in (np.nan, np.inf, complex(np.nan, 0.0), complex(0.0, np.inf)):
            for args in ((bad, 0.0, 1.0, 1.0), (1.0, bad, 1.0, 1.0), (1.0, 0.0, bad, -1.0)):
                with pytest.raises(ExistenceViolation):
                    pf_construct(*args)

    def test_symmetric_imaginary_point(self):
        # a = i, b = -i, gamma = -i/2 via a12 = b12 = 1/2; the resulting
        # generator has omega = -2, rho = 1 and a real spectrum
        pf = pf_construct(1j, -1j, 0.5, 0.5, omega=-2.0, rho=1.0)
        assert abs(pf.gamma + 0.5j) < 1e-14
        h_pf = hpf_build(pf)
        np.testing.assert_allclose(h_pf, hamiltonian(CircuitParams.from_rates(0.0, 1.0)), atol=1e-14)
        values, _, _ = eig2(h_pf)
        assert abs(values[0].imag) < 1e-14 and abs(values[1].imag) < 1e-14
        assert pt_check(h_pf).is_pt_symmetric

    def test_random_existence_family(self):
        # any (a, b, a12) with a != b admits exactly one b12
        rng = np.random.default_rng(40)
        for _ in range(500):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            if abs(a - b) < 0.1:
                continue
            a12 = complex(rng.normal(), rng.normal())
            if abs(a12) < 0.1:
                continue
            b12 = -1.0 / (a12 * (a - b) ** 2)
            pf = pf_construct(a, b, a12, b12)
            scale = 1.0 + max(abs(a), abs(b)) ** 2 * abs(a12 * b12)
            assert np.abs(anticommutator(pf.c_op, pf.cc_op) - EYE).max() < 1e-11 * scale
            assert np.abs(pf.c_op @ pf.c_op).max() < 1e-11 * scale
            assert np.abs(pf.cc_op @ pf.cc_op).max() < 1e-11 * scale


class TestIdentify:
    def test_overdamped_plus_branch(self):
        pf = pf_identify(UP_REF, "plus")
        assert abs(pf.a - 2.25) < 1e-14
        assert abs(pf.b - 0.25) < 1e-14
        assert abs(pf.rho + 2.25j) < 1e-14
        assert abs(pf.omega - 2j) < 1e-14
        assert abs(pf.gamma - 0.5) < 1e-14
        np.testing.assert_allclose(hpf_build(pf), hamiltonian(UP_REF), atol=1e-13)

    def test_underdamped_plus_branch(self):
        pf = pf_identify(BP_REF, "plus")
        assert abs(pf.a - (1 + 1j) / SQ2) < 1e-14
        assert abs(pf.b - (1 - 1j) / SQ2) < 1e-14
        assert abs(pf.rho - (1 - 1j) / SQ2) < 1e-14
        assert abs(pf.omega + SQ2) < 1e-14
        sys_ = eigensystem(BP_REF)
        spectrum = {pf.rho, pf.rho + pf.omega}
        for lam in (sys_.lambda_plus, sys_.lambda_minus):
            assert min(abs(lam - s) for s in spectrum) < 1e-13

    def test_lossless_point(self):
        pf = pf_identify(CircuitParams.from_rates(0.0, 1.0), "plus")
        assert abs(pf.a - 1j) < 1e-14
        assert abs(pf.b + 1j) < 1e-14
        assert abs(pf.rho - 1.0) < 1e-14
        assert abs(pf.omega + 2.0) < 1e-14
        values, _, _ = eig2(hpf_build(pf))
        assert abs(values[0].imag) < 1e-13 and abs(values[1].imag) < 1e-13

    def test_matrix_pattern(self):
        for pf in (pf_identify(UP_REF, "plus"), pf_identify(BP_REF, "minus")):
            np.testing.assert_allclose(
                pf.c_op,
                pf.a12 * np.array([[pf.a, 1.0], [-pf.a ** 2, -pf.a]]),
                atol=1e-12,
            )
            np.testing.assert_allclose(
                pf.cc_op,
                pf.b12 * np.array([[pf.b, 1.0], [-pf.b ** 2, -pf.b]]),
                atol=1e-12,
            )

    def test_rejects_exceptional_band(self):
        params = CircuitParams.from_rates(2.0 * (1 + 1e-13), 2.0)
        with pytest.raises(ExistenceViolation):
            pf_identify(params, "plus")
        # the existence failure is an exceptional-point obstruction
        with pytest.raises(ExceptionalPointError):
            pf_identify(params, "minus")

    def test_rejects_unknown_branch(self):
        with pytest.raises(ValueError):
            pf_identify(BP_REF, "both")

    @pytest.mark.parametrize("phase", [Phase.BROKEN, Phase.UNBROKEN])
    def test_reproduces_hamiltonian_on_draws(self, phase):
        rng = np.random.default_rng(41)
        for _ in range(100):
            params = draw_params(rng, phase)
            h = hamiltonian(params)
            for branch in ("plus", "minus"):
                pf = pf_identify(params, branch)
                assert np.abs(hpf_build(pf) - h).max() < 1e-12 * (1 + np.abs(h).max())

    @pytest.mark.parametrize("phase", [Phase.BROKEN, Phase.UNBROKEN])
    def test_branch_swap_exchanges_operators(self, phase):
        rng = np.random.default_rng(42)
        for _ in range(50):
            params = draw_params(rng, phase)
            plus = pf_identify(params, "plus")
            minus = pf_identify(params, "minus")
            scale = 1.0 + np.abs(plus.c_op).max()
            assert np.abs(minus.c_op - plus.cc_op).max() < 1e-12 * scale
            assert np.abs(minus.cc_op - plus.c_op).max() < 1e-12 * scale


class TestHpfBuild:
    def test_zero_frequency_collapses_to_scalar(self):
        pf = pf_construct(9 / 4, 1 / 4, 1.0, -0.25, omega=0.0, rho=3.5)
        np.testing.assert_allclose(hpf_build(pf), 3.5 * EYE, atol=1e-14)
        np.testing.assert_allclose(susy_partner(pf), hpf_build(pf), atol=1e-14)

    def test_underdamped_reference_matrix(self):
        pf = pf_identify(BP_REF, "plus")
        np.testing.assert_allclose(hpf_build(pf), 1j * np.array([[0, 1], [-1, -SQ2]]), atol=1e-13)

    def test_spectrum_is_rho_and_rho_plus_omega(self):
        pf = pf_identify(UP_REF, "plus")
        values, _, _ = eig2(hpf_build(pf))
        expected = sorted([pf.rho, pf.rho + pf.omega], key=lambda z: z.imag)
        got = sorted(values, key=lambda z: z.imag)
        assert abs(got[0] - expected[0]) < 1e-13
        assert abs(got[1] - expected[1]) < 1e-13

    def test_matches_operator_product_form(self):
        pf = pf_identify(UP_REF, "minus")
        direct = pf.omega * (pf.cc_op @ pf.c_op) + pf.rho * EYE
        np.testing.assert_allclose(hpf_build(pf), direct, atol=1e-13)


class TestLadderRelations:
    @pytest.mark.parametrize("params", [BP_REF, UP_REF])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_all_twelve_relations(self, params, branch):
        sys_ = eigensystem(params)
        pf = pf_identify(params, branch)
        residuals = ladder_check(pf, sys_)
        assert len(residuals) == 12
        assert max(residuals.values()) < 1e-12

    def test_double_annihilation(self):
        pf = pf_identify(UP_REF, "plus")
        assert np.linalg.norm(pf.c_op @ (pf.c_op @ pf.phi_plus)) < 1e-13

    @pytest.mark.parametrize("params", EQUIVALENCE_POINTS)
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_stacked_residuals_match_per_relation_reference(self, params, branch):
        system = eigensystem(params)
        pf = pf_identify(params, branch)
        got, ref = ladder_check(pf, system), ladder_reference(pf, system)
        assert list(got) == list(ref)
        ops = (pf.c_op, pf.cc_op, pf.cc_op @ pf.c_op, pf.c_op.conj().T @ pf.cc_op.conj().T)
        vecs = (pf.phi_minus, pf.phi_plus, pf.psi_minus, pf.psi_plus)
        scale = max(np.abs(op).max() for op in ops) * max(np.abs(v).max() for v in vecs)
        for key in ref:
            assert abs(got[key] - ref[key]) <= 4 * EPS * scale, key


class TestFermionize:
    def test_hermitian_limit_fermion_equals_ladder(self):
        params = CircuitParams.from_rates(0.0, 1.0)
        pf = pf_identify(params, "plus")
        fz = fermionize(pf, metric_pair(eigensystem(params)))
        np.testing.assert_allclose(fz.a_op, pf.c_op, atol=1e-13)

    def test_underdamped_reference_car(self):
        pf = pf_identify(BP_REF, "plus")
        fz = fermionize(pf, metric_pair(eigensystem(BP_REF)))
        adag = fz.a_op.conj().T
        assert np.abs(anticommutator(fz.a_op, adag) - EYE).max() < 1e-12
        assert np.abs(fz.a_op @ fz.a_op).max() < 1e-14

    def test_orthonormal_mode_basis(self):
        pf = pf_identify(BP_REF, "plus")
        fz = fermionize(pf, metric_pair(eigensystem(BP_REF)))
        assert abs(np.linalg.norm(fz.e_plus) - 1) < 1e-12
        assert abs(np.linalg.norm(fz.e_minus) - 1) < 1e-12
        assert abs(np.vdot(fz.e_minus, fz.e_plus)) < 1e-12

    def test_ladder_action_on_modes(self):
        pf = pf_identify(BP_REF, "plus")
        fz = fermionize(pf, metric_pair(eigensystem(BP_REF)))
        assert np.linalg.norm(fz.a_op @ fz.e_minus) < 1e-12
        assert np.linalg.norm(fz.a_op @ fz.e_plus - fz.e_minus) < 1e-12
        assert np.linalg.norm(fz.a_op.conj().T @ fz.e_minus - fz.e_plus) < 1e-12

    def test_reconstructs_hamiltonian(self):
        # H = S_phi^(1/2) H_fho S_psi^(1/2): conjugating back with the
        # inverse roots undoes A = S_psi^(1/2) c S_phi^(1/2)
        pair = metric_pair(eigensystem(BP_REF))
        fz = fermionize(pf_identify(BP_REF, "plus"), pair)
        root_phi = sqrt_pos_hermitian(pair.s_phi)
        root_psi = sqrt_pos_hermitian(pair.s_psi)
        rebuilt = root_phi @ fz.h_fho @ root_psi
        assert np.abs(rebuilt - hamiltonian(BP_REF)).max() < 1e-11

    def test_overdamped_phase_with_positive_pair(self):
        sys_ = eigensystem(UP_REF)
        pf = pf_identify(UP_REF, "plus")
        fz = fermionize(pf, positive_pair(sys_))
        adag = fz.a_op.conj().T
        assert np.abs(anticommutator(fz.a_op, adag) - EYE).max() < 1e-12
        assert abs(np.vdot(fz.e_minus, fz.e_plus)) < 1e-12
        assert abs(np.linalg.norm(fz.e_plus) - 1) < 1e-12

    def test_rejects_a_pair_without_ladder_basis(self):
        pf = pf_construct(9 / 4, 1 / 4, 1.0, -0.25)
        with pytest.raises(ValueError, match="ladder basis"):
            fermionize(pf, metric_pair(eigensystem(BP_REF)))

    def test_rejects_indefinite_pair(self):
        sys_ = eigensystem(UP_REF)
        with pytest.raises(NotPositiveHermitian):
            fermionize(pf_identify(UP_REF, "plus"), metric_pair(sys_))

    def test_fho_generator_isospectral_with_hamiltonian(self):
        rng = np.random.default_rng(44)
        for phase in (Phase.BROKEN, Phase.UNBROKEN):
            for _ in range(25):
                params = draw_params(rng, phase)
                sys_ = eigensystem(params)
                fz = fermionize(pf_identify(params, "plus"), positive_pair(sys_))
                vals_h, _, _ = eig2(hamiltonian(params))
                vals_f, _, _ = eig2(fz.h_fho)
                scale = 1.0 + abs(vals_h[0]) + abs(vals_h[1])
                assert abs(vals_h[0] - vals_f[0]) < 1e-11 * scale
                assert abs(vals_h[1] - vals_f[1]) < 1e-11 * scale


class TestSusyPartner:
    def test_swapped_eigenvalue_roles(self):
        pf = pf_identify(UP_REF, "plus")
        partner = susy_partner(pf)
        assert np.linalg.norm(partner @ pf.phi_minus - (pf.rho + pf.omega) * pf.phi_minus) < 1e-12
        assert np.linalg.norm(partner @ pf.phi_plus - pf.rho * pf.phi_plus) < 1e-12
        assert abs(pf.rho + 2.25j) < 1e-14

    def test_same_spectrum_as_generator(self):
        pf = pf_identify(UP_REF, "plus")
        vals_h = set(np.round(np.array(eig2(hpf_build(pf)).values), 10))
        vals_s = set(np.round(np.array(eig2(susy_partner(pf)).values), 10))
        assert vals_h == vals_s


class TestPtSymmetry:
    def test_lossless_unit_frequency_is_symmetric(self):
        assert pt_check(hamiltonian(CircuitParams.from_rates(0.0, 1.0))).is_pt_symmetric

    def test_identity_is_symmetric(self):
        assert pt_check(np.eye(2)).is_pt_symmetric

    def test_damped_reference_is_not(self):
        report = pt_check(hamiltonian(BP_REF))
        assert not report.is_pt_symmetric
        left, right = pt_probe(hamiltonian(BP_REF), np.array([1.0, 0.0]))
        np.testing.assert_allclose(left, 1j * np.array([1.0, -2 / SQ2]), atol=1e-14)
        np.testing.assert_allclose(right, 1j * np.array([1.0, 0.0]), atol=1e-14)

    @pytest.mark.parametrize("params", EQUIVALENCE_POINTS)
    def test_probe_block_equals_single_probes(self, params):
        h = hamiltonian(params)
        left, right = pt_probe(h, PT_PROBES)
        assert left.shape == right.shape == (2, 4)
        for k in range(4):
            one_left, one_right = pt_probe(h, PT_PROBES[:, k])
            np.testing.assert_array_equal(left[:, k], one_left)
            np.testing.assert_array_equal(right[:, k], one_right)

    @pytest.mark.parametrize("params", EQUIVALENCE_POINTS)
    def test_residuals_match_per_probe_norms(self, params):
        h = hamiltonian(params)
        ref = [np.linalg.norm(np.subtract(*pt_probe(h, v))) for v in PT_PROBES.T]
        got = pt_check(h).probe_residuals
        np.testing.assert_allclose(got, ref, rtol=4 * EPS, atol=0.0)

    def test_finite_residuals_where_squared_entries_overflow(self):
        # H carries omega0^2 = 1e308; each probe's residual is about that entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = pt_check(hamiltonian(CircuitParams.from_rates(1e154, 1e154)))
        assert report.probe_residuals == pytest.approx([1e308] * 4, rel=1e-15)
        assert not report.is_pt_symmetric

    def test_flag_only_at_unit_lossless_point(self):
        for alpha, w0 in [(0.0, 1.5), (0.3, 1.0), (2.0, 2.0)]:
            h = hamiltonian(CircuitParams.from_rates(alpha, w0))
            assert not pt_check(h).is_pt_symmetric
