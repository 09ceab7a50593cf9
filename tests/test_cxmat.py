import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhrlc import (
    CircuitParams,
    char_poly_coeffs,
    eig2,
    expm,
    hamiltonian,
    operator_norm,
    sqrt_pos_hermitian,
    trace_det,
)
from nhrlc.cxmat import as_cmat, as_cvec2
from nhrlc.errors import NotPositiveHermitian
from nhrlc.spectral import modes

from helpers import rk4_states

SQ2 = np.sqrt(2.0)
EPS = np.finfo(float).eps

# NaN, +inf and -inf, in the real and in the imaginary part
NON_FINITE = [complex(x, 0.0) for x in (np.nan, np.inf, -np.inf)]
NON_FINITE += [complex(0.0, x) for x in (np.nan, np.inf, -np.inf)]

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def cmat2(entries):
    re = np.array(entries[:4]).reshape(2, 2)
    im = np.array(entries[4:]).reshape(2, 2)
    return re + 1j * im


class TestValidation:
    def test_as_cmat_rejects_a_wrong_shape(self):
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            as_cmat(np.eye(3), 2)

    @pytest.mark.parametrize("vec", [[1.0, 0.0, 0.0], [[1.0], [0.0], [2.0]]])
    def test_as_cvec2_rejects_a_wrong_shape(self, vec):
        with pytest.raises(ValueError, match="expected a 2-vector"):
            as_cvec2(vec)

    def test_as_cvec2_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_cvec2([1.0, np.nan])

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("index", range(4))
    def test_as_cmat_rejects_a_non_finite_entry(self, bad, index):
        m = np.eye(2, dtype=complex)
        m.flat[index] = bad
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            as_cmat(m, 2)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("index", range(2))
    def test_as_cvec2_rejects_a_non_finite_entry(self, bad, index):
        v = np.ones(2, dtype=complex)
        v[index] = bad
        with pytest.raises(ValueError, match="^vector entries must be finite$"):
            as_cvec2(v)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -0.0, 1.0])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("size", [2, 4])
    def test_finite_verdicts_and_messages_match_numpy(self, value, part, size):
        # the scalar check against numpy's: NaN/inf refused, subnormals and -0.0 kept
        for index in range(size * size):
            m = np.ones((size, size), dtype=complex)
            m.flat[index] = complex(value, 0.0) if part == "real" else complex(0.0, value)
            cases = [(lambda: as_cmat(m, size), m, "matrix")]
            if size == 2:
                v = m[0] if index < 2 else m[1]
                cases.append((lambda: as_cvec2(v), v, "vector"))
            for call, arg, kind in cases:
                if np.isfinite(arg).all():
                    assert call().tobytes() == arg.tobytes()
                else:
                    with pytest.raises(ValueError, match=f"^{kind} entries must be finite$"):
                        call()


class TestEig2:
    def test_hermitian_pauli_type(self):
        values, vectors, degenerate = eig2([[0, 1j], [-1j, 0]])
        assert not degenerate
        np.testing.assert_allclose(values, [1.0, -1.0], atol=1e-14)
        m = np.array([[0, 1j], [-1j, 0]])
        for lam, vec in zip(values, vectors):
            assert np.linalg.norm(m @ vec - lam * vec) < 1e-12

    def test_underdamped_reference_matrix(self):
        m = 1j * np.array([[0, 1], [-1, -SQ2]])
        values, vectors, degenerate = eig2(m)
        assert not degenerate
        np.testing.assert_allclose(values[0], (1 - 1j) / SQ2, atol=1e-14)
        np.testing.assert_allclose(values[1], (-1 - 1j) / SQ2, atol=1e-14)
        for lam, vec in zip(values, vectors):
            assert np.linalg.norm(m @ vec - lam * vec) < 1e-12

    def test_critically_damped_double_eigenvalue(self):
        # alpha = omega0 = 2; double root checked against the characteristic
        # polynomial rather than any quoted value
        m = 1j * np.array([[0, 1], [-4, -4]])
        values, vectors, degenerate = eig2(m)
        assert degenerate
        np.testing.assert_allclose(values[0], -2j, atol=1e-12)
        np.testing.assert_allclose(values[1], -2j, atol=1e-12)
        tr, det = trace_det(m)
        for lam in values:
            assert abs(lam * lam - tr * lam + det) < 1e-12
        assert np.linalg.norm(m @ vectors[0] - values[0] * vectors[0]) < 1e-12

    def test_scalar_matrix_returns_basis(self):
        values, vectors, degenerate = eig2(3.0 * np.eye(2))
        assert degenerate
        assert abs(np.vdot(vectors[0], vectors[1])) < 1e-14

    def test_ordering_descending_imag_then_real(self):
        values, _, _ = eig2(np.diag([1.0 + 2j, 5.0 + 1j]))
        np.testing.assert_allclose(values, [1.0 + 2j, 5.0 + 1j], atol=1e-14)
        values, _, _ = eig2(np.diag([-3.0, 4.0]))
        np.testing.assert_allclose(values, [4.0, -3.0], atol=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eig2([[np.nan, 0], [0, 1]])

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(finite, min_size=8, max_size=8))
    def test_reconstruction(self, entries):
        from hypothesis import assume

        m = cmat2(entries)
        tr, det = trace_det(m)
        scale = float(np.abs(m).max()) + 1.0
        assume(abs(tr * tr - 4.0 * det) > 1e-2 * scale ** 2)
        values, vectors, degenerate = eig2(m)
        assert not degenerate
        vmat = np.column_stack(vectors)
        rebuilt = vmat @ np.diag(values) @ np.linalg.inv(vmat)
        assert np.abs(rebuilt - m).max() < 1e-10 * scale


class TestExpm:
    def test_t_zero_is_identity(self):
        m = np.array([[1.0 + 2j, -0.5], [0.25j, -3.0]])
        np.testing.assert_allclose(expm(m, 0.0), np.eye(2), atol=1e-14)

    def test_diagonal_rotation(self):
        np.testing.assert_allclose(
            expm(np.diag([1j, -1j]), np.pi), -np.eye(2), atol=1e-12
        )

    def test_against_integration_oracle(self):
        h = 1j * np.array([[0, 1], [-1, -SQ2]])
        gen = -1j * h
        state = expm(gen, 1.0) @ np.array([1.0, 0.0])
        oracle = rk4_states(gen, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1e-4)[-1]
        assert np.abs(state - oracle).max() < 1e-8

    def test_degenerate_block_against_integration_oracle(self):
        gen = -1j * (1j * np.array([[0, 1], [-4, -4]]))
        state = expm(gen, 0.7) @ np.array([1.0, 0.5])
        oracle = rk4_states(gen, np.array([1.0, 0.5]), np.array([0.0, 0.7]), 1e-4)[-1]
        assert np.abs(state - oracle).max() < 1e-8

    @pytest.mark.parametrize(
        "m",
        [
            1j * np.array([[0, 1], [-4, -4]]),  # double eigenvalue, Jordan block
            1j * np.array([[0, 1], [-1, -SQ2]]),
        ],
        ids=["degenerate", "distinct"],
    )
    def test_array_of_times_stacks_scalar_results(self, m):
        ts = np.linspace(-1.0, 3.0, 9)
        batched = expm(m, ts)
        assert batched.shape == (9, 2, 2)
        stacked = np.array([expm(m, t) for t in ts])
        assert np.abs(batched - stacked).max() <= 1e-14 * np.abs(stacked).max()
        assert expm(m, 0.5).shape == (2, 2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(finite, min_size=8, max_size=8),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_semigroup(self, entries, s, t):
        from hypothesis import assume

        m = cmat2(entries)
        tr, det = trace_det(m)
        scale = float(np.abs(m).max()) + 1.0
        assume(abs(tr * tr - 4.0 * det) > 5e-2 * scale ** 2)
        both = expm(m, s + t)
        product = expm(m, s) @ expm(m, t)
        magnitude = max(operator_norm(both), operator_norm(product), 1.0)
        assert np.abs(both - product).max() < 1e-10 * magnitude

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(finite, min_size=8, max_size=8), st.floats(min_value=-2.0, max_value=2.0))
    def test_det_exp_equals_exp_trace(self, entries, t):
        m = cmat2(entries)
        tr, _ = trace_det(m)
        _, det_e = trace_det(expm(m, t))
        expected = np.exp(t * tr)
        assert abs(det_e - expected) < 1e-10 * max(abs(expected), 1.0)


class TestSqrtPosHermitian:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_pos_hermitian(np.eye(2)), np.eye(2), atol=1e-14)

    def test_square_recovers_input(self):
        m = np.array([[2.0, SQ2], [SQ2, 2.0]])
        p = sqrt_pos_hermitian(m)
        np.testing.assert_allclose(p @ p, m, atol=1e-12)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-14)

    def test_diagonal(self):
        # (tr - sqrt(tr^2 - 4 det))/2 cancels to 0 for the second; tr, det > 0 do not
        for diag in ([4.0, 9.0], [1e8, 1e-9]):
            np.testing.assert_allclose(
                sqrt_pos_hermitian(np.diag(diag)), np.diag(np.sqrt(diag)), rtol=1e-15, atol=0
            )

    def test_commutes_with_input(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = b @ b.conj().T + 0.5 * np.eye(2)
            p = sqrt_pos_hermitian(m)
            assert np.abs(p @ m - m @ p).max() < 1e-12 * np.abs(m).max()

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-160, 1e160, 1e200, 1e300])
    def test_square_recovers_input_at_the_ends_of_the_float_range(self, scale):
        # det = 1.75 scale^2 under- or overflows past about 1e154 unless M is scaled first
        m = scale * np.array([[2.0, 0.5j], [-0.5j, 1.0]])
        p = sqrt_pos_hermitian(m)
        assert np.abs(p @ p - m).max() <= 4 * EPS * np.abs(m).max()

    @pytest.mark.parametrize(
        "bad",
        [
            [[1.0, 1.0], [0.0, 1.0]],          # not Hermitian
            [[1.0, 0.0], [0.0, -1.0]],         # negative eigenvalue
            [[1.0, 1.0], [1.0, 1.0]],          # singular
        ],
    )
    def test_rejects_non_positive(self, bad):
        with pytest.raises(NotPositiveHermitian):
            sqrt_pos_hermitian(np.array(bad))


def hermitian_verdict(m):
    try:
        sqrt_pos_hermitian(m)
    except NotPositiveHermitian as exc:
        return str(exc)
    return "positive"


SCALE_FREE_CASES = [
    np.diag([1.0, 2.0]),                       # distinct, a tie in imaginary parts
    np.array([[1.0, 1.0], [0.0, 1.0]]),        # Jordan block, not Hermitian
    np.eye(2),                                 # a multiple of the identity
    np.array([[0.0, 1.0], [-1.0, -2.0]]),      # the EP generator in omega0 units
    np.array([[1.0, 1.0], [1e-11, 1.0]]),      # inside the degenerate band
    np.array([[1.0, 1.0], [1e-9, 1.0]]),       # just outside it
    np.array([[2.0, 1j], [-1j, 2.0]]),         # positive Hermitian
    np.array([[1.0, 2.0], [2.0, 1.0]]),        # Hermitian, one negative eigenvalue
    np.array([[1 + 2j, 0.5], [0.3j, -1.0]]),
]
SCALE_FREE_IDS = [
    "diag", "jordan", "identity", "ep", "in-band", "off-band", "hermitian", "indefinite", "complex",
]


class TestScaleFreeVerdicts:
    @pytest.mark.parametrize("m", SCALE_FREE_CASES, ids=SCALE_FREE_IDS)
    def test_power_of_two_multiples_get_the_same_verdicts(self, m):
        # each decision is relative to the matrix's own scale, and scaling by 2^k is exact
        base = eig2(m)
        for k in range(-60, 61):
            s = 2.0**k
            got = eig2(s * m)
            assert got.degenerate == base.degenerate, k
            np.testing.assert_allclose(got.values, s * np.array(base.values), rtol=1e-15)
            np.testing.assert_allclose(got.vectors, base.vectors, rtol=1e-15, atol=1e-300)
            assert hermitian_verdict(s * m) == hermitian_verdict(m), k

    @pytest.mark.parametrize("m", SCALE_FREE_CASES, ids=SCALE_FREE_IDS)
    def test_square_root_verdicts_across_the_float_range(self, m):
        # sqrt_pos_hermitian works on M / 4^k; 2^k M is exact while every nonzero part is normal
        parts = [abs(x) for x in np.concatenate([m.real.ravel(), m.imag.ravel()]) if x]
        low = -1021 - math.frexp(min(parts))[1]
        high = 1023 - math.frexp(max(parts))[1]
        verdict = hermitian_verdict(m)
        for k in range(low + low % 2, high + 1, 2):
            assert hermitian_verdict(2.0**k * m) == verdict, k
            if verdict == "positive":
                root = sqrt_pos_hermitian(2.0**k * m) * 2.0 ** (-k // 2)
                assert np.abs(root @ root - m).max() <= 4 * EPS * np.abs(m).max(), k

    def test_expm_of_a_small_diagonal(self):
        got = expm(np.diag([1e-6, 2e-6]), 1e6)
        np.testing.assert_allclose(np.diag(got), [np.e, np.e**2], rtol=1e-14)

    @pytest.mark.parametrize("omega0", [1e4, 1e6])
    @pytest.mark.parametrize("zeta", [0.3, 0.999, 1.001, 2.0, -0.3, -0.999])
    def test_circuit_generator_matches_modes(self, omega0, zeta):
        # H's entries reach omega0^2, far above its eigenvalues' size omega0
        h = hamiltonian(CircuitParams.from_rates(zeta * omega0, omega0))
        lam = modes(zeta * omega0, omega0)
        got = eig2(h)
        assert not got.degenerate
        np.testing.assert_allclose(
            got.values, [lam.lambda_plus, lam.lambda_minus], rtol=0, atol=1e-14 * omega0
        )
        t = 1.0 / omega0
        np.testing.assert_allclose(
            np.trace(expm(-1j * h, t)),
            np.exp(-1j * lam.lambda_plus * t) + np.exp(-1j * lam.lambda_minus * t),
            rtol=0, atol=1e-14,
        )


class TestTraceDet:
    def test_identity(self):
        assert trace_det(np.eye(2)) == (2.0, 1.0)

    def test_shear(self):
        assert trace_det([[1.0, 1.0], [0.0, 1.0]]) == (2.0, 1.0)

    def test_triangular_family(self):
        beta = 5.0
        tr, det = trace_det([[2.0, 3.0], [0.0, beta]])
        assert tr == 2.0 + beta and det == 2.0 * beta

    def test_4x4_against_numpy(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            tr, det = trace_det(m)
            assert abs(tr - np.trace(m)) < 1e-12
            assert abs(det - np.linalg.det(m)) < 1e-10 * max(abs(det), 1.0)

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            trace_det(np.eye(3))


class TestCharPoly:
    def test_2x2_closed_form(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        tr, det = trace_det(m)
        np.testing.assert_allclose(char_poly_coeffs(m), [1.0, -tr, det], atol=1e-13)

    def test_4x4_against_root_product(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            mine = char_poly_coeffs(m)
            oracle = np.poly(np.linalg.eigvals(m))
            np.testing.assert_allclose(mine, oracle, atol=1e-9 * np.abs(oracle).max())


def test_operator_norm_against_svd():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert abs(operator_norm(m) - np.linalg.svd(m, compute_uv=False)[0]) < 1e-12


class TestOperatorNorm:
    """The closed form against LAPACK's largest singular value."""

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
    def test_matches_svd_on_random_matrices(self, scale):
        rng = np.random.default_rng(23)
        for m in (rng.normal(size=(2000, 2, 2)) + 1j * rng.normal(size=(2000, 2, 2))) * scale:
            ref = np.linalg.norm(m, 2)
            assert abs(operator_norm(m) - ref) <= 4 * np.finfo(float).eps * ref

    def test_matches_svd_on_close_singular_values(self):
        # where (F + sqrt(F^2 - 4|det|^2))/2 cancels: s2 = s1 (1 - 10^-k)
        rng = np.random.default_rng(29)
        for k in range(17):
            u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            v, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            m = u @ np.diag([1.0, 1.0 - 10.0**-k]) @ v
            ref = np.linalg.norm(m, 2)
            assert abs(operator_norm(m) - ref) <= 4 * np.finfo(float).eps * ref, k

    @pytest.mark.parametrize(
        "m, expected",
        [
            (np.zeros((2, 2)), 0.0),
            (np.diag([1e308, 1.0]), 1e308),
            (np.diag([5e-324, 0.0]), 5e-324),
            (np.full((2, 2), 1e300j), 2e300),
        ],
    )
    def test_exact_at_the_ends_of_the_float_range(self, m, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert operator_norm(m) == expected
