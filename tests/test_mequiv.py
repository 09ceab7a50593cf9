import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhrlc import (
    CircuitParams,
    char_poly_coeffs,
    eigensystem,
    gain_hamiltonian,
    hamiltonian,
    is_similar,
    lemma_hypothesis,
    lemma_similarity_residual,
    liouville,
    m_equivalent,
    metric_pair,
    ode_coefficients_2,
    quartic_coefficients,
    similar_hamiltonian,
    solve_intertwiners,
    trace_det,
)
from nhrlc import mequiv

from helpers import PAIR_KINDS, balanced_residual, designed_pair, random_invertible

SQ2 = np.sqrt(2.0)

IDENTITY = np.eye(2)
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


def h_upper(beta, offdiag=3.0):
    return np.array([[2.0, offdiag], [0.0, beta]])


H_LOWER = np.array([[1.0, 2.0], [1.0, 0.0]])


class TestScalarOdeCoefficients:
    def test_underdamped_reference(self):
        coeffs = ode_coefficients_2(hamiltonian(CircuitParams.from_rates(1 / SQ2, 1.0)))
        assert coeffs.order == 2
        np.testing.assert_allclose(coeffs.coefficients, [1.0, SQ2, 1.0], atol=1e-14)

    def test_general_damped_form(self):
        rng = np.random.default_rng(50)
        for _ in range(25):
            alpha, w0 = rng.uniform(0.1, 3.0, size=2)
            coeffs = ode_coefficients_2(hamiltonian(CircuitParams.from_rates(alpha, w0)))
            np.testing.assert_allclose(
                coeffs.coefficients, [1.0, 2 * alpha, w0 ** 2], atol=1e-12
            )

    def test_gain_form_flips_damping(self):
        coeffs = ode_coefficients_2(gain_hamiltonian(CircuitParams.from_rates(1 / SQ2, 1.0)))
        np.testing.assert_allclose(coeffs.coefficients, [1.0, -SQ2, 1.0], atol=1e-14)


class TestMEquivalent:
    def test_identity_and_shear(self):
        assert m_equivalent(IDENTITY, SHEAR)

    def test_rank_deficient_family_at_special_parameter(self):
        assert m_equivalent(h_upper(-1.0), H_LOWER)

    def test_rank_deficient_family_otherwise(self):
        assert not m_equivalent(h_upper(0.0), H_LOWER)

    def test_invariant_under_similarity(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            p = random_invertible(rng, 2)
            assert m_equivalent(m, p @ m @ np.linalg.inv(p))


class TestIsSimilar:
    def test_identity_vs_shear(self):
        # equal invariants but no invertible conjugation
        assert not is_similar(IDENTITY, SHEAR)

    def test_generator_and_its_metric_transform(self):
        params = CircuitParams.from_rates(1 / SQ2, 1.0)
        sys_ = eigensystem(params)
        h0 = hamiltonian(params)
        h1 = similar_hamiltonian(sys_, metric_pair(sys_), h0)
        assert is_similar(h0, h1)

    def test_explicit_conjugation(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            p = random_invertible(rng, 2)
            assert is_similar(m, p @ m @ np.linalg.inv(p))

    def test_scalar_pair(self):
        assert is_similar(2.0 * IDENTITY, 2.0 * IDENTITY)
        assert not is_similar(2.0 * IDENTITY, 2.0 * SHEAR)

    def test_similar_implies_m_equivalent(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            m = rng.normal(size=(2, 2))
            p = random_invertible(rng, 2)
            conjugated = p @ m @ np.linalg.inv(p)
            assert is_similar(m, conjugated)
            assert m_equivalent(m, conjugated)

    def test_trace_gap_at_the_bound_is_neither(self):
        # largest entry modulus 1, so the bound on the trace gap is 1e-12 and this gap is
        # twice it; similar implies m-equivalent
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        shifted = np.array([[2e-12, 1.0], [0.0, 0.0]])
        assert not m_equivalent(nilpotent, shifted)
        assert not is_similar(nilpotent, shifted)


class TestInvariantScale:
    """Verdicts for entries whose squares overflow a float."""

    @pytest.mark.parametrize("size", [1e200, 1e308])
    def test_huge_scalar_pair(self, size):
        assert m_equivalent(size * IDENTITY, size * IDENTITY)
        assert is_similar(size * IDENTITY, size * IDENTITY)

    def test_huge_jordan_block_against_scalar(self):
        assert m_equivalent(1e200 * SHEAR, 1e200 * IDENTITY)
        assert not is_similar(1e200 * SHEAR, 1e200 * IDENTITY)

    def test_entry_modulus_beyond_the_largest_float(self):
        z = 1.5e308 + 1.5e308j  # |z| overflows, its components do not
        diagonal = np.diag([z, z])
        jordan = diagonal + np.array([[0.0, 1e308], [0.0, 0.0]])
        assert m_equivalent(jordan, diagonal)
        assert not is_similar(jordan, diagonal)
        assert not m_equivalent(diagonal, IDENTITY)

    def test_huge_different_traces(self):
        assert not m_equivalent(1e300 * IDENTITY, -1e300 * IDENTITY)
        assert not is_similar(1e300 * IDENTITY, -1e300 * IDENTITY)


class TestCoincidenceRule:
    """m_equivalent, is_similar and the intertwiner dimension read one decision."""

    @staticmethod
    def verdicts(a, b):
        return m_equivalent(a, b), is_similar(a, b), len(solve_intertwiners(a, b))

    @pytest.mark.parametrize("omega0", [1e-150, 1e-6, 1e-3, 1.0, 1e3, 1e4, 1e6, 1e9, 1e150])
    def test_h_against_its_adjoint_at_every_scale(self, omega0):
        zetas = [0.0, 1e-9, -1e-9, 1e-6, -1e-6, 0.3, -0.3, 1.0, -1.0, 2.0, -2.0, 1 + 1e-9, 1 - 1e-9]
        for zeta in zetas:
            h = hamiltonian(CircuitParams.from_rates(zeta * omega0, omega0))
            hd = h.conj().T
            assert self.verdicts(h, hd) == ((True, True, 2) if zeta == 0 else (False, False, 0))
            for x in solve_intertwiners(h, hd):
                assert balanced_residual(h, hd, x) <= 1e-14

    @pytest.mark.parametrize("k", [-400, -37, 1, 200, 400])
    def test_verdicts_unchanged_by_a_power_of_two(self, k):
        rng = np.random.default_rng(57)
        mats = [IDENTITY, SHEAR, 2.0 * IDENTITY, H_LOWER, h_upper(-1.0), h_upper(0.0), h_upper(5.0)]
        mats += [np.array([[1.0, 1e-9], [0.0, 1.0]]), np.diag([1.0, 1.0 + 1e-12])]
        for alpha, omega0 in [(0.0, 1.0), (0.3, 1.0), (1.0, 1.0), (-2.0, 1e3), (3e-4, 1e-3)]:
            h = hamiltonian(CircuitParams.from_rates(alpha, omega0))
            mats += [h, h.conj().T]
        mats += list(rng.normal(size=(10, 2, 2)) + 1j * rng.normal(size=(10, 2, 2)))
        mats += [m @ mats[-1] @ np.linalg.inv(m) for m in rng.normal(size=(3, 2, 2))]
        scale = 2.0 ** k
        for a in mats:
            for b in mats:
                assert self.verdicts(a * scale, b * scale) == self.verdicts(a, b)


class TestDecisionCache:
    """_coincidence keeps the last decision, keyed by the pair's bytes and the tolerance."""

    @pytest.fixture
    def decisions(self, monkeypatch):
        """The pairs decided since the cache was cleared, as copies."""
        decided, decide = [], mequiv._decide

        def counted(a, b):
            decided.append((a.copy(), b.copy()))
            return decide(a, b)

        monkeypatch.setattr(mequiv, "_decide", counted)
        monkeypatch.setattr(mequiv, "_last", (None, None))
        return decided

    @staticmethod
    def same(d1, d2):
        """Equal decisions, the balanced pair bitwise (sign of zero included)."""
        return d1[:3] == d2[:3] and d1[3].tobytes() == d2[3].tobytes() and d1[4] == d2[4]

    def test_three_questions_make_one_decision(self, decisions):
        h = hamiltonian(CircuitParams.from_rates(0.3, 1.0))
        hg = gain_hamiltonian(CircuitParams.from_rates(0.3, 1.0))
        assert not m_equivalent(h, hg) and not is_similar(h, hg) and not solve_intertwiners(h, hg)
        assert len(decisions) == 1

    def test_a_pair_changed_in_place_is_decided_again(self, decisions):
        verdicts = TestCoincidenceRule.verdicts
        h = hamiltonian(CircuitParams.from_rates(0.0, 1.0))
        hd = h.conj().T
        assert verdicts(h, hd) == (True, True, 2)
        h[...] = hamiltonian(CircuitParams.from_rates(0.3, 1.0))
        assert verdicts(h, hd) == (False, False, 0)
        hd[...] = h.conj().T
        assert verdicts(h, hd) == (False, False, 0)
        hd[...] = h
        assert verdicts(h, hd) == (True, True, 2)
        assert len(decisions) == 4
        np.testing.assert_array_equal(decisions[-1], [h, h])

    def test_the_sign_of_a_zero_is_part_of_the_key(self, decisions):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        first = mequiv._coincidence(a, SHEAR)
        a[0, 0] = -0.0
        second = mequiv._coincidence(a, SHEAR)
        assert len(decisions) == 2 and first[:3] == second[:3]
        assert not np.signbit(first[3][0, 0, 0].real) and np.signbit(second[3][0, 0, 0].real)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_a_refused_pair_is_refused_every_time_and_not_stored(self, decisions, entry):
        kept = mequiv._coincidence(IDENTITY, SHEAR)
        bad = IDENTITY.copy()
        bad[1, 0] = entry
        for ask in (m_equivalent, is_similar, solve_intertwiners, m_equivalent):
            with pytest.raises(ValueError, match="finite"):
                ask(bad, SHEAR)
        assert mequiv._last[1] is kept
        assert mequiv._coincidence(IDENTITY, SHEAR) is kept and len(decisions) == 1

    def test_interleaved_pairs_equal_decisions_from_an_empty_cache(self, decisions):
        a, b = SHEAR, 2.0 * IDENTITY + H_LOWER
        seen = [mequiv._coincidence(x, y) for x, y in [(a, b), (b, a), (a, b)]]
        assert len(decisions) == 3
        for (x, y), got in zip([(a, b), (b, a), (a, b)], seen):
            mequiv._last = (None, None)
            assert self.same(got, mequiv._coincidence(x, y))

    def test_the_balanced_pair_is_read_only(self, decisions):
        *_, pair, undo = mequiv._coincidence(1e200 * SHEAR, H_LOWER)
        assert isinstance(undo, tuple)
        for arr in (pair, *pair):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pair[0, 0, 0] = 1.0
        assert mequiv._coincidence(1e200 * SHEAR, H_LOWER)[3][0, 0, 0] != 1.0

    def test_a_patched_tolerance_takes_effect_on_a_repeat_call(self, decisions, monkeypatch):
        # the trace gap 2e-12 is twice the bound at 1e-12 and a fifth of it at 1e-11
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        shifted = np.array([[2e-12, 1.0], [0.0, 0.0]])
        assert not m_equivalent(nilpotent, shifted)
        monkeypatch.setattr(mequiv, "EQUIVALENCE_RTOL", 1e-11)
        assert m_equivalent(nilpotent, shifted)
        assert len(decisions) == 2


def _entry(re, im, k):
    return complex(re, im) * 10.0 ** k


ENTRIES = st.builds(_entry, st.floats(-1, 1), st.floats(-1, 1), st.integers(-150, 150))
MATRICES = st.lists(ENTRIES, min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2))


class TestCacheEquivalence:
    """The three answers are the same with the decision cache warm as with it cleared."""

    @staticmethod
    def asked(a, b, cleared):
        out = []
        for ask in (m_equivalent, is_similar, solve_intertwiners):
            if cleared or not out:
                mequiv._last = (None, None)
            out.append(ask(a, b))
        return out[0], out[1], [x.tobytes() for x in out[2]]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.sampled_from(PAIR_KINDS),
        MATRICES, MATRICES, st.floats(-2, 2), st.floats(-2, 2),
    )
    def test_warm_answers_are_the_cold_ones(self, kind, m, n, t, u):
        a, b = designed_pair(kind, m, n, t, u)
        assert self.asked(a, b, cleared=False) == self.asked(a, b, cleared=True)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.sampled_from(PAIR_KINDS),
        MATRICES, MATRICES, st.floats(-2, 2), st.floats(-2, 2),
    )
    def test_the_decided_dim_is_the_intertwiner_count(self, kind, m, n, t, u):
        a, b = designed_pair(kind, m, n, t, u)
        assert len(solve_intertwiners(a, b)) == mequiv._coincidence(a, b)[2]


class TestIntertwinerVersusInvariants:
    @pytest.mark.parametrize("beta", [-1.0, 0.0, 5.0])
    def test_intertwiner_exists_for_all_parameters(self, beta):
        assert len(solve_intertwiners(h_upper(beta), H_LOWER)) >= 1

    @pytest.mark.parametrize("beta,expected", [(-1.0, True), (0.0, False), (5.0, False)])
    def test_equivalence_only_at_special_parameter(self, beta, expected):
        assert m_equivalent(h_upper(beta), H_LOWER) is expected

    def test_counterexample_summary(self):
        # intertwined but not equivalent, and equivalent but not similar
        assert len(solve_intertwiners(h_upper(5.0), H_LOWER)) >= 1
        assert not m_equivalent(h_upper(5.0), H_LOWER)
        assert m_equivalent(IDENTITY, SHEAR) and not is_similar(IDENTITY, SHEAR)
        assert len(solve_intertwiners(SHEAR, IDENTITY)) == 2


class TestLiouville:
    def test_zero_coefficients(self):
        sys_ = liouville(0, 0, 0, 0, 0, 0)
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = 1.0
        np.testing.assert_array_equal(sys_.matrix, expected)
        np.testing.assert_array_equal(sys_.h_eff, 1j * expected)

    def test_coupled_pair_form(self):
        # alpha1 = -g, beta1 = g, alpha2 = beta2 = a, alpha3 = beta3 = a*mu
        a, mu, g = 2.0, 0.3, 2.0
        sys_ = liouville(-g, a, a * mu, g, a, a * mu)
        np.testing.assert_allclose(sys_.matrix[2], [-a, a * mu, g, 0.0], atol=0)
        np.testing.assert_allclose(sys_.matrix[3], [a * mu, -a, 0.0, -g], atol=0)

    def test_block_form(self):
        w2, k = 2.5, 0.7
        sys_ = liouville(0, w2, k, 0, w2, k)
        np.testing.assert_allclose(sys_.matrix[:2, 2:], np.eye(2), atol=0)
        np.testing.assert_allclose(sys_.matrix[2:, 2:], np.zeros((2, 2)), atol=0)
        np.testing.assert_allclose(sys_.matrix[2:, :2], [[-w2, k], [k, -w2]], atol=0)


class TestQuarticCoefficients:
    def test_zero_system(self):
        coeffs = quartic_coefficients(liouville(0, 0, 0, 0, 0, 0))
        assert coeffs.order == 4
        np.testing.assert_allclose(coeffs.coefficients, [1, 0, 0, 0, 0], atol=0)

    def test_coupled_pair_with_matched_damping(self):
        # 2a = g^2 makes the second-order coefficient vanish; the first-order
        # one vanishes automatically for this family
        a, mu, g = 2.0, 0.3, 2.0
        coeffs = quartic_coefficients(liouville(-g, a, a * mu, g, a, a * mu)).coefficients
        assert abs(coeffs[2]) < 1e-14
        assert abs(coeffs[3]) < 1e-14

    def test_block_form_against_cofactor_determinant(self):
        w2, k = 2.5, 0.7
        sys_ = liouville(0, w2, k, 0, w2, k)
        coeffs = quartic_coefficients(sys_).coefficients
        _, det = trace_det(sys_.matrix)
        np.testing.assert_allclose(coeffs, [1, 0, 2 * w2, 0, det], atol=1e-13)

    def test_matches_characteristic_polynomial(self):
        rng = np.random.default_rng(54)
        for _ in range(30):
            sys_ = liouville(*rng.uniform(-2, 2, size=6))
            np.testing.assert_allclose(
                quartic_coefficients(sys_).coefficients,
                char_poly_coeffs(sys_.matrix),
                atol=1e-12,
            )

    def test_last_entry_is_cofactor_determinant(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            sys_ = liouville(*rng.uniform(-2, 2, size=6))
            _, det = trace_det(sys_.matrix)
            assert abs(quartic_coefficients(sys_).coefficients[4] - det) < 1e-12


class TestLemma:
    def test_hypothesis_on_matched_damping(self):
        a, mu, g = 2.0, 0.3, 2.0
        assert lemma_hypothesis(liouville(-g, a, a * mu, g, a, a * mu))

    def test_hypothesis_fails_otherwise(self):
        a, mu, g = 1.0, 0.3, 1.0
        assert not lemma_hypothesis(liouville(-g, a, a * mu, g, a, a * mu))

    def test_hypothesis_is_relative_to_the_coefficients(self):
        # a = 1e-14, g = 1e-7: 2a - g^2 = 1e-14 against terms of 1e-14, as 1 against 1 at a = g = 1
        a, mu, g = 1e-14, 0.3, 1e-7
        assert not lemma_hypothesis(liouville(-g, a, a * mu, g, a, a * mu))

    def test_zero_system_satisfies_hypothesis(self):
        assert lemma_hypothesis(liouville(0, 0, 0, 0, 0, 0))

    def test_similarity_leaves_equation_unchanged(self):
        a, mu, g = 2.0, 0.3, 2.0
        sys_ = liouville(-g, a, a * mu, g, a, a * mu)
        rng = np.random.default_rng(56)
        for _ in range(20):
            s = random_invertible(rng, 4)
            assert lemma_similarity_residual(sys_, s) < 1e-10
