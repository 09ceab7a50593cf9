import cmath
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhrlc import (
    CircuitParams,
    ExceptionalPointError,
    NotExceptionalError,
    Phase,
    build_report,
    eig2,
    eigensystem,
    ep_system,
    expand,
    fermionize,
    hamiltonian,
    ladder_check,
    metric_pair,
    modes,
    pairing,
    pf_identify,
    positive_pair,
    spectral,
)
from nhrlc.circuit import MAX_ALPHA, MAX_OMEGA0
from nhrlc.report import TOLERANCES

from helpers import mapped_modes, reference_modes

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

    def test_refuses_a_non_finite_eigenvector(self):
        # |lambda_plus| = 4e-309 is below 1/(largest float), so -i/lambda_plus is inf
        params = CircuitParams.from_rates(1.25, 1e-154)
        assert 0 < abs(modes(params.alpha, params.omega0).lambda_plus) < 1 / np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="eigenvector entry is not finite"):
                eigensystem(params)


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

    def test_gain_overdamped_has_the_unbroken_pairing_pattern(self):
        sys_ = eigensystem(CircuitParams.from_rates(-2.0, 1.0))
        assert sys_.phase is Phase.UNBROKEN
        assert abs(sys_.n_pm - 1) < 1e-14 and abs(sys_.n_mp - 1) < 1e-14
        assert abs(sys_.n_pp) < 1e-14 and abs(sys_.n_mm) < 1e-14


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

    @pytest.mark.parametrize("w0", [1e-160, 1e-120, 1e-60, 1e-3, 1.0, 1e3, 1e60, 1e120, 1e150])
    def test_biorthogonal_across_scales(self, w0):
        # at omega0 = 1e-160, omega0^2 is subnormal; psi is built without it
        for ratio in (0.3, 0.9, 3.0, 1.5, -0.3, -0.9, 1e-3, 1 + 1e-6, 1 - 1e-6):
            sys_ = eigensystem(CircuitParams.from_rates(ratio * w0, w0))
            same = 1.0 if sys_.phase is Phase.BROKEN else 0.0
            residual = max(
                abs(sys_.n_pp - same), abs(sys_.n_mm - same),
                abs(sys_.n_pm - (1.0 - same)), abs(sys_.n_mp - (1.0 - same)),
            )
            assert residual < TOLERANCES["biorthogonality_residual"], ratio

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
            grid = mapped_modes(alphas * w0, w0)
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

    @pytest.mark.parametrize("omega0", [1e-3, 1.0, 1e3])
    def test_gain_eigenvalues_are_the_loss_adjoint_eigenvalues_bitwise(self, omega0):
        # lambda_pm(-alpha) = mu_pm(alpha): the gain side needs no mirror path
        alphas = np.geomspace(1e-6, 1e6, 241) * omega0
        gain, loss = mapped_modes(-alphas, omega0), mapped_modes(alphas, omega0)
        for lam, mu in ((gain.lambda_plus, loss.mu_plus), (gain.lambda_minus, loss.mu_minus)):
            assert lam.tobytes() == mu.tobytes()

    @pytest.mark.parametrize("alpha", [1e8, 1e300])
    def test_no_cancellation_or_overflow(self, alpha):
        # alpha - sqrt(alpha^2 - 1) ~ 1/(2 alpha) loses every digit when
        # subtracted, and alpha^2 overflows past 1e154
        got = mapped_modes(np.array([alpha, -alpha]), 1.0)
        np.testing.assert_allclose(got.lambda_plus, [-0.5j / alpha, 2j * alpha], rtol=1e-15)
        np.testing.assert_allclose(got.lambda_minus, [-2j * alpha, 0.5j / alpha], rtol=1e-15)

    def test_finite_eigenvalues_where_omega0_plus_alpha_overflows(self):
        # BP, so |lambda| = omega0; only the n_phi products overflow here
        with np.errstate(over="ignore"):
            got = modes(8.5e307, 1e308)
        for field in self.FIELDS[:4]:
            value = getattr(got, field)
            assert np.isfinite(value) and abs(value) == pytest.approx(1e308, rel=1e-15), field
        assert got.lambda_plus.imag == pytest.approx(-8.5e307, rel=1e-15)

    def test_n_phi_where_twice_lambda_overflows(self):
        # |lambda| = 1e308 > max/2; n_phi is scale-free, so the unit point is the reference
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = modes(8.5e307, 1e308)
        ref = modes(0.85, 1.0)
        for field in self.FIELDS[4:]:
            assert getattr(got, field) == pytest.approx(getattr(ref, field), rel=1e-15), field
        assert abs(got.n_phi_plus) == pytest.approx(0.949, rel=1e-3)

    def test_n_phi_where_lambda_is_subnormal(self):
        # lambda_plus = -4e-309j, whose reciprocal overflows; n_phi divides by no eigenvalue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = modes(1.25, 1e-154)
        assert got.n_phi_plus == pytest.approx(modes(1.25e154, 1.0).n_phi_plus, rel=1e-15)
        assert got.n_phi_plus == pytest.approx(1.0, rel=1e-15)

    def test_exceptional_point_is_warning_free(self):
        got = mapped_modes(np.array([1.0, -1.0]), 1.0)
        np.testing.assert_array_equal(got.lambda_plus, got.lambda_minus)
        assert not np.any(np.isfinite(got.n_phi_plus))

    def test_no_negative_zeros(self):
        got = mapped_modes(np.array([0.0, 2.0, -2.0]), 1.0)
        for field in self.FIELDS[:4]:
            values = getattr(got, field)
            assert not np.any(np.signbit(values.real) & (values.real == 0)), field
            assert not np.any(np.signbit(values.imag) & (values.imag == 0)), field

    # omega0 from subnormal to MAX_OMEGA0; alpha in BP or UP, loss or gain, in the EP band
    # or at the exact EP, a signed zero, or anywhere up to MAX_ALPHA in size
    OMEGA0 = st.one_of(
        st.floats(1e-300, MAX_OMEGA0),
        st.sampled_from([5e-324, 4e-323, 1e-310, 2.2250738585072014e-308, MAX_OMEGA0]),
    )
    ALPHA_OF = st.one_of(
        st.floats(-1, 1).map(lambda u: lambda w0: u * w0),  # BP, or the EP at +-1
        st.floats(1, 1e6).map(lambda u: lambda w0: u * w0),  # UP, loss
        st.floats(-1e6, -1).map(lambda u: lambda w0: u * w0),  # UP, gain
        st.integers(-3000, 3000).map(lambda k: lambda w0: w0 * (1 + k * 2.0 ** -52)),  # EP band
        st.integers(-3000, 3000).map(lambda k: lambda w0: -w0 * (1 + k * 2.0 ** -52)),
        st.sampled_from([1.0, -1.0]).map(lambda s: lambda w0: s * w0),  # the exact EP
        st.sampled_from([0.0, -0.0]).map(lambda a: lambda w0: a),
        st.floats(-MAX_ALPHA, MAX_ALPHA).map(lambda a: lambda w0: a),
    )

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(OMEGA0, ALPHA_OF)
    def test_scalars_equal_the_numpy_arithmetic_bitwise(self, omega0, alpha_of):
        alpha = alpha_of(omega0)
        got = modes(alpha, omega0)  # no exception and, as RuntimeWarnings are errors, no warning
        with np.errstate(all="ignore"):  # the frozen numpy form warns where omega0/4 underflows
            want = reference_modes(alpha, omega0)
        assert all(type(value) is complex for value in got)
        bits = [(float.hex(z.real), float.hex(z.imag)) for z in map(complex, want)]
        assert [(float.hex(z.real), float.hex(z.imag)) for z in got] == bits, (alpha, omega0)
        if abs(alpha) == omega0:
            assert not cmath.isfinite(got.n_phi_plus) and not cmath.isfinite(got.n_phi_minus)

    def test_an_array_is_a_type_error(self):
        with pytest.raises(TypeError):
            modes(np.array([0.3, 2.0]), 1.0)


def _bits(system):
    """Every field of a system as raw bytes, so signed zeros count."""
    return {
        name: np.asarray(getattr(system, name)).tobytes()
        for name in system._fields if name != "phase"
    }


def _vectors(system):
    return (system.phi_plus, system.phi_minus, system.psi_plus, system.psi_minus)


class TestReuse:
    def test_same_params_object_gets_the_same_system(self):
        p = CircuitParams.from_rates(0.3, 1.0)
        assert eigensystem(p) is eigensystem(p)

    def test_eigenvectors_are_read_only(self):
        system = eigensystem(CircuitParams.from_rates(0.3, 1.0))
        for vec in _vectors(system):
            with pytest.raises(ValueError):
                vec[0] = 0.0

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("rates", [(0.3, 1.0), (2.0, 1.0)])
    def test_ladder_basis_is_the_systems_own(self, rates, branch):
        p = CircuitParams.from_rates(*rates)
        own = _vectors(eigensystem(p))
        pf = pf_identify(p, branch)
        for vec in (pf.phi_minus, pf.phi_plus, pf.psi_minus, pf.psi_plus):
            assert any(vec is v for v in own)

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_equal_params_keep_their_own_zero_sign(self, first):
        a = CircuitParams.from_rates(first, 1.3)
        b = CircuitParams.from_rates(-first, 1.3)
        assert a == b
        for p in (a, b, a):
            assert np.signbit(eigensystem(p).alpha) == np.signbit(p.alpha)

    def test_interleaved_points_match_fresh_builds(self):
        p = CircuitParams.from_rates(0.3, 1.0)
        q = CircuitParams.from_rates(2.0, 1.0)
        for params in (p, q, p):
            assert _bits(eigensystem(params)) == _bits(spectral._build(params))

    @pytest.mark.parametrize("rates,error", [
        ((1.0, 1.0), ExceptionalPointError),
        ((1.25, 1e-154), ValueError),
    ])
    def test_refusal_raises_again_and_keeps_the_last_system(self, rates, error):
        good = CircuitParams.from_rates(0.3, 1.0)
        system = eigensystem(good)
        bad = CircuitParams.from_rates(*rates)
        for _ in range(2):
            with pytest.raises(error):
                eigensystem(bad)
        assert eigensystem(good) is system
        assert _bits(system) == _bits(spectral._build(good))


class TestOneBuildPerPoint:
    @pytest.fixture
    def builds(self, monkeypatch):
        """The systems the private builder returns; a refusal builds none."""
        built = []
        build = spectral._build

        def counted(params):
            built.append(build(params))
            return built[-1]

        monkeypatch.setattr(spectral, "_build", counted)
        return built

    @pytest.mark.parametrize("rates", [(0.3, 1.0), (2.0, 1.0)])
    def test_report(self, builds, rates):
        build_report(CircuitParams.from_rates(*rates))
        assert len(builds) == 1

    @pytest.mark.parametrize("rates", [(0.3, 1.0), (2.0, 1.0)])
    def test_plane_sequence(self, builds, rates):
        p = CircuitParams.from_rates(*rates)
        system = eigensystem(p)
        metric_pair(system)
        pfs = [pf_identify(p, branch) for branch in ("plus", "minus")]
        for pf in pfs:
            ladder_check(pf, system)
        fermionize(pfs[0], positive_pair(system))
        assert len(builds) == 1

    def test_exceptional_point_builds_nothing(self, builds):
        build_report(CircuitParams.from_rates(1.0, 1.0))
        assert builds == []
