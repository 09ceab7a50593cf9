"""Mathematical equivalence of circuits through their first-order generators.

Two circuits whose equations of motion take the form i*Phi' = H*Phi are
m-equivalent when tr(H_a) = tr(H_b) and det(H_a) = det(H_b): eliminating the
auxiliary component shows that the scalar variable obeys

    v'' + i*tr(H) v' - det(H) v = 0,

so equal invariants mean an identical scalar equation. m-equivalence is
weaker than similarity (the identity and a Jordan block share invariants but
are not similar) and is neither implied by nor implies the existence of a
non-invertible intertwiner.

For two coupled second-order circuits the 4x4 first-order matrix L yields a
quartic for the first variable whose coefficients are exactly the
characteristic polynomial coefficients of L; when the second- and
first-order coefficients vanish, only trace and determinant survive, and any
similarity transform of L produces the same quartic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cxmat import as_cmat, char_poly_coeffs, rescale, trace_det

EQUIVALENCE_RTOL = 1e-12


@dataclass(frozen=True)
class OdeCoefficients:
    """Monic scalar ODE coefficients, highest derivative first."""

    order: int
    coefficients: tuple[complex, ...]


@dataclass(frozen=True)
class LiouvilleSystem:
    """First-order form of two coupled damped circuits.

    x1'' + alpha1 x1' + alpha2 x1 = alpha3 x2,
    x2'' + beta1 x2'  + beta2 x2  = beta3 x1,

    stacked as (x1, x2, x1', x2') with matrix rows
    [0 0 1 0; 0 0 0 1; -alpha2 alpha3 -alpha1 0; beta3 -beta2 0 -beta1],
    and effective generator h_eff = i * matrix.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    beta1: float
    beta2: float
    beta3: float
    matrix: np.ndarray
    h_eff: np.ndarray


def ode_coefficients_2(h) -> OdeCoefficients:
    """[1, i*tr(H), -det(H)]: the scalar equation v'' + i*tr v' - det v = 0."""
    tr, det = trace_det(as_cmat(h, 2))
    return OdeCoefficients(order=2, coefficients=(1.0 + 0.0j, 1j * tr, -det))


def _compare(h_a, h_b):
    """The one invariant comparison, for :func:`m_equivalent` and :func:`is_similar`.

    Both matrices are first brought to a common power-of-two scale by
    :func:`~nhrlc.cxmat.rescale`, so every determinant and scale**2 is finite.
    """
    (a, b), scale = rescale(as_cmat(h_a, 2), as_cmat(h_b, 2))
    tr_a, det_a = trace_det(a)
    tr_b, det_b = trace_det(b)
    equal = bool(
        abs(tr_a - tr_b) < EQUIVALENCE_RTOL * scale
        and abs(det_a - det_b) < EQUIVALENCE_RTOL * scale ** 2
    )
    return equal, scale, (a, tr_a, det_a), (b, tr_b, det_b)


def m_equivalent(h_a, h_b) -> bool:
    """Equal traces and determinants, relative to the entry magnitude."""
    return _compare(h_a, h_b)[0]


def is_similar(h_a, h_b) -> bool:
    """Similarity of 2x2 matrices via minimal-polynomial comparison.

    Same characteristic polynomial is necessary; it is sufficient unless the
    spectrum is a double point, where both matrices must additionally be
    scalar or both non-scalar (degree of the minimal polynomial).
    """
    equal, scale, (a, tr_a, det_a), (b, tr_b, _) = _compare(h_a, h_b)
    if not equal:
        return False

    def _scalar(m, tr) -> bool:
        return bool(np.abs(m - (tr / 2.0) * np.eye(2)).max() <= EQUIVALENCE_RTOL * scale)

    disc = tr_a * tr_a - 4.0 * det_a
    if abs(disc) > EQUIVALENCE_RTOL * scale ** 2:
        return True
    return _scalar(a, tr_a) == _scalar(b, tr_b)


def liouville(alpha1, alpha2, alpha3, beta1, beta2, beta3) -> LiouvilleSystem:
    """Assemble the coupled-circuit first-order matrix and its generator."""
    a1, a2, a3 = float(alpha1), float(alpha2), float(alpha3)
    b1, b2, b3 = float(beta1), float(beta2), float(beta3)
    matrix = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-a2, a3, -a1, 0.0],
            [b3, -b2, 0.0, -b1],
        ],
        dtype=complex,
    )
    return LiouvilleSystem(
        alpha1=a1, alpha2=a2, alpha3=a3, beta1=b1, beta2=b2, beta3=b3,
        matrix=matrix, h_eff=1j * matrix,
    )


def quartic_coefficients(system: LiouvilleSystem) -> OdeCoefficients:
    """Coefficients of the fourth-order equation satisfied by x1.

    [1, -tr(L), alpha2 + beta2 + alpha1*beta1, alpha1*beta2 + alpha2*beta1,
    det(L)]; these coincide with the characteristic polynomial of L.
    """
    tr, det = trace_det(system.matrix)
    return OdeCoefficients(
        order=4,
        coefficients=(
            1.0 + 0.0j,
            -tr,
            complex(system.alpha2 + system.beta2 + system.alpha1 * system.beta1),
            complex(system.alpha1 * system.beta2 + system.alpha2 * system.beta1),
            det,
        ),
    )


def lemma_hypothesis(system: LiouvilleSystem) -> bool:
    """True when both mixed coefficient combinations vanish.

    Then the quartic for x1 reduces to x'''' - tr(L) x''' + det(L) x = 0,
    whose surviving coefficients are similarity invariants, so L and any
    S L S^-1 produce the same equation (see
    :func:`lemma_similarity_residual` for the numerical verification).
    """
    c2, c1 = quartic_coefficients(system).coefficients[2:4]
    return bool(abs(c2) <= 1e-12 and abs(c1) <= 1e-12)


def lemma_similarity_residual(system: LiouvilleSystem, s_matrix) -> float:
    """Max difference between the x1-quartic of L and that of S L S^-1.

    The transformed matrix is generally not in coupled-circuit form, so its
    quartic is read off the characteristic polynomial.
    """
    s = as_cmat(s_matrix, 4)
    transformed = s @ system.matrix @ np.linalg.inv(s)
    own = np.array(quartic_coefficients(system).coefficients)
    other = char_poly_coeffs(transformed)
    return float(np.abs(own - other).max())
