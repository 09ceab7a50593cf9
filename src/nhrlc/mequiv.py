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

The coincidence rule behind m-equivalence, similarity and the intertwiner
dimension (``_decide``) runs on Python complex scalars. numpy and ``cxmat``
are imported inside the functions that form arrays, and the two result
records are NamedTuples, so ``import nhrlc.mequiv`` loads neither numpy,
``cxmat`` nor the data-class module with its ``inspect``, ``ast`` and ``dis``,
nor does the CLI's ``mequiv`` decision.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

EQUIVALENCE_RTOL = 1e-12
_last: tuple = (None, None)  # (key, decision) of the last pair decided; refusals are not stored


class OdeCoefficients(NamedTuple):
    """Monic scalar ODE coefficients, highest derivative first."""

    order: int
    coefficients: tuple[complex, ...]


class LiouvilleSystem(NamedTuple):
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
    from .cxmat import as_cmat, trace_det

    tr, det = trace_det(as_cmat(h, 2))
    return OdeCoefficients(order=2, coefficients=(1.0 + 0.0j, 1j * tr, -det))


def _coincidence(h_a, h_b):
    """The one decision behind m-equivalence, similarity and intertwiners.

    Each matrix M becomes D^-1 M D, D = diag(1, 2^e), |m01| 2^e ~ |m10| 2^-e, over one common
    power of two, by exact ldexp in :func:`_decide`. With s the largest entry modulus and eps =
    ``EQUIVALENCE_RTOL`` * s, traces agree within eps, determinants within eps*s, and roots
    within eps plus the radii their rounding leaves them in; dim{X : A X = X B} sums min(p, q)
    over shared roots with Jordan blocks p, q (Gantmacher, vol. 1, ch. VIII). Returns
    (m_equivalent, similar, dim, the balanced pair, the exponents that take an intertwiner Y of
    it to X = D_A Y D_B^-1 over one power of two). A repeat call with the last pair's bytes
    (0.0 != -0.0) and ``EQUIVALENCE_RTOL`` returns the same tuple; its pair is read-only and its
    exponents a tuple, as callers share them. Input that is not finite raises and is not stored.
    """
    global _last
    import nhrlc.cxmat as cxmat  # per call, a quarter of what `from .cxmat import` costs

    a, b = cxmat.as_cmat(h_a, 2), cxmat.as_cmat(h_b, 2)
    key, last = (a.tobytes(), b.tobytes(), EQUIVALENCE_RTOL), _last
    if key != last[0]:
        import numpy as np

        *verdicts, rows, undo = _decide(a.tolist(), b.tolist())
        pair = np.array(rows).reshape(2, 2, 2)
        pair.setflags(write=False)
        last = _last = (key, (*verdicts, pair, undo))
    return last[1]


def _decide(a, b):
    """The rule of :func:`_coincidence` on two 2x2 nested lists of Python complex, with no
    numpy: (m_equivalent, similar, dim, the balanced pair as two row-major 4-lists, undo)."""
    rows = [a[0] + a[1], b[0] + b[1]]
    shifts, top = [], 0.0  # per matrix, the exponents that balance its entries; the largest part
    for w, x, y, z in rows:
        parts = [max(abs(v.real), abs(v.imag)) for v in (w, x, y, z)]  # no modulus: none overflows
        e = (math.frexp(parts[2])[1] - math.frexp(parts[1])[1]) // 2 if x and y else 0
        shifts.append((0, e, -e, 0))
        top = max(top, parts[0], parts[3], math.ldexp(parts[1], e), math.ldexp(parts[2], -e))
    common = 1 - math.frexp(top)[1]  # and the common one
    rows = [[complex(math.ldexp(v.real, e + common), math.ldexp(v.imag, e + common))
             for v, e in zip(row, shift)] for row, shift in zip(rows, shifts)]
    s = max(map(abs, rows[0] + rows[1]))
    eps = EQUIVALENCE_RTOL * s
    kinds = []  # trace, determinant, roots, the radius their rounding stays in, scalar flag
    for w, x, y, z in rows:
        d, xy = w - z, x * y
        tr, det = w + z, w * z - xy
        disc = d * d + 4.0 * xy  # tr^2 - 4 det, with no cancellation on a diagonal or triangle
        sq = cmath.sqrt(disc)  # the larger root q with no cancellation, the other det/q
        q = (tr + sq if (tr.conjugate() * sq).real >= 0 else tr - sq) / 2.0
        noise = 2.0 ** -50 * (abs(d) ** 2 + 4.0 * abs(xy))  # 8 unit roundoffs bound disc's error
        r = noise / (abs(sq) + math.sqrt(noise)) if noise else 0.0  # >= |sqrt(exact disc) - sq| / 2
        scalar = max(abs(x), abs(y), abs(d) / 2.0) <= eps
        kinds.append((tr, det, (q, det / q) if q else (q, q), r, scalar))
    (tr_a, det_a, roots_a, r_a, scalar_a), (tr_b, det_b, roots_b, r_b, scalar_b) = kinds
    equal = abs(tr_a - tr_b) <= eps and abs(det_a - det_b) <= eps * s
    if equal:  # Jordan blocks (1, 1) of a scalar, (2) at a double root, (1) at a simple one
        dim = 4 if scalar_a and scalar_b else 2
    elif any(abs(p - q) <= eps + r_a + r_b for p in roots_a for q in roots_b):
        dim = 2 if scalar_a or scalar_b else 1
    else:
        dim = 0
    (_, e_a, _, _), (_, e_b, _, _) = shifts
    k = max(e_a, 0) + max(-e_b, 0)  # the largest exponent of D_A Y D_B^-1 over Y
    undo = ((-k, -e_b - k), (e_a - k, e_a - e_b - k))
    # a scalar matrix has a double root: similar needs equal scalar flags only there
    return equal, equal and scalar_a == scalar_b, dim, rows, undo


def m_equivalent(h_a, h_b) -> bool:
    """Equal traces and determinants, relative to the balanced entry scale."""
    return _coincidence(h_a, h_b)[0]


def is_similar(h_a, h_b) -> bool:
    """Similarity of 2x2 matrices via minimal-polynomial comparison.

    Same characteristic polynomial is necessary; it is sufficient unless the
    spectrum is a double point, where both matrices must additionally be
    scalar or both non-scalar (degree of the minimal polynomial).
    """
    return _coincidence(h_a, h_b)[1]


def liouville(alpha1, alpha2, alpha3, beta1, beta2, beta3) -> LiouvilleSystem:
    """Assemble the coupled-circuit first-order matrix and its generator."""
    import numpy as np

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
    from .cxmat import trace_det

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
    """True when both mixed coefficient combinations vanish, each to within
    ``EQUIVALENCE_RTOL`` times the sum of its terms' moduli.

    Then the quartic for x1 reduces to x'''' - tr(L) x''' + det(L) x = 0,
    whose surviving coefficients are similarity invariants, so L and any
    S L S^-1 produce the same equation (see
    :func:`lemma_similarity_residual` for the numerical verification).
    """
    c2, c1 = quartic_coefficients(system).coefficients[2:4]
    a1, a2, b1, b2 = system.alpha1, system.alpha2, system.beta1, system.beta2
    size2, size1 = abs(a2) + abs(b2) + abs(a1 * b1), abs(a1 * b2) + abs(a2 * b1)
    return bool(abs(c2) <= EQUIVALENCE_RTOL * size2 and abs(c1) <= EQUIVALENCE_RTOL * size1)


def lemma_similarity_residual(system: LiouvilleSystem, s_matrix) -> float:
    """Max difference between the x1-quartic of L and that of S L S^-1.

    The transformed matrix is generally not in coupled-circuit form, so its
    quartic is read off the characteristic polynomial.
    """
    import numpy as np

    from .cxmat import as_cmat, char_poly_coeffs

    s = as_cmat(s_matrix, 4)
    transformed = s @ system.matrix @ np.linalg.inv(s)
    own = np.array(quartic_coefficients(system).coefficients)
    other = char_poly_coeffs(transformed)
    return float(np.abs(own - other).max())
