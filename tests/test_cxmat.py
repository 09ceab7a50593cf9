import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhrlc import char_poly_coeffs, eig2, expm, operator_norm, sqrt_pos_hermitian, trace_det
from nhrlc.errors import NotPositiveHermitian

from helpers import rk4_states

SQ2 = np.sqrt(2.0)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def cmat2(entries):
    re = np.array(entries[:4]).reshape(2, 2)
    im = np.array(entries[4:]).reshape(2, 2)
    return re + 1j * im


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
        np.testing.assert_allclose(
            sqrt_pos_hermitian(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-13
        )

    def test_commutes_with_input(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = b @ b.conj().T + 0.5 * np.eye(2)
            p = sqrt_pos_hermitian(m)
            assert np.abs(p @ m - m @ p).max() < 1e-12 * np.abs(m).max()

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
