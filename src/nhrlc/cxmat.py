"""Dense complex matrix kernel for 2x2 (and 4x4 trace/determinant) work.

Everything here is closed form: quadratic-formula eigenpairs, the matrix
exponential from the eigenvalues alone (Sylvester's formula, no inverse; a
nilpotent split at a double eigenvalue), the unique positive square root of a
positive Hermitian 2x2 matrix, and Faddeev-LeVerrier characteristic polynomials
(which also give the 4x4 determinant). No iterative linear algebra is used.

On 2x2 operands numpy's per-call cost outweighs the flops, so the kernels whose
rounding feeds no tolerance gate work on Python complex scalars (helpers at the
end); the gate-feeding ones keep numpy's arithmetic, which fuses multiply-adds.
The finite checks of as_cmat and as_cvec2 run cmath.isfinite on the entries.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import NotPositiveHermitian

# Relative band below which a characteristic-polynomial discriminant is
# treated as a double root.
DEGENERACY_RTOL = 1e-10

# Relative band for "equal imaginary parts" when ordering eigenvalues.
ORDER_TIE_RTOL = 1e-12

HERMITICITY_ATOL = 1e-12


def as_cmat(m, size: int) -> np.ndarray:
    """Validate and return a finite complex (size, size) array."""
    out = np.asarray(m, dtype=complex)
    if out.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got shape {out.shape}")
    if not all(map(cmath.isfinite, out.flat)):
        raise ValueError("matrix entries must be finite")
    return out


def as_cvec2(v) -> np.ndarray:
    """Validate and return a finite complex 2-vector."""
    out = np.asarray(v, dtype=complex).reshape(-1)
    if out.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {np.shape(v)}")
    if not all(map(cmath.isfinite, out.flat)):
        raise ValueError("vector entries must be finite")
    return out


def outer(f, g) -> np.ndarray:
    """Rank-one map |f><g|: (|f><g|) h = <g, h> f."""
    return np.asarray(f, dtype=complex)[:, None] * np.conj(np.asarray(g, dtype=complex))


class Eig2(NamedTuple):
    """Closed-form 2x2 eigendecomposition result."""

    values: tuple[complex, complex]
    vectors: tuple[np.ndarray, np.ndarray]
    degenerate: bool


def eig2(m) -> Eig2:
    """Eigenpairs of a 2x2 complex matrix by the quadratic formula.

    Eigenvalues are ordered by descending imaginary part, ties broken by
    descending real part. The ``degenerate`` flag is set when the modulus of
    the characteristic-polynomial discriminant is at most ``DEGENERACY_RTOL *
    max(|tr|, sqrt|det|)^2``, the eigenvalues' size squared (a non-normal
    matrix's entries can be far larger); the matrix is then treated as having a
    double eigenvalue tr/2 (and, unless it is a multiple of the identity, a
    single eigendirection, returned twice).
    """
    a = as_cmat(m, 2)
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = tr * tr - 4.0 * det
    s = np.sqrt(disc)
    scale = max(abs(tr), math.sqrt(abs(det)))
    degenerate = bool(abs(s) <= math.sqrt(DEGENERACY_RTOL) * scale)

    if degenerate:
        lam = complex(tr / 2.0)
        vec = _eigvec(a, lam)
        if vec is None:
            e1 = np.array([1.0, 0.0], dtype=complex)
            e2 = np.array([0.0, 1.0], dtype=complex)
            return Eig2((lam, lam), (e1, e2), True)
        return Eig2((lam, lam), (vec, vec.copy()), True)

    tie = abs(s.imag) <= ORDER_TIE_RTOL * scale
    if (not tie and s.imag < 0) or (tie and s.real < 0):
        s = -s
    lam1 = (tr + s) / 2.0
    lam2 = (tr - s) / 2.0
    # lam1 != lam2 off the band, so a != lam*I: no None
    v1 = _eigvec(a, lam1)
    v2 = _eigvec(a, lam2)
    return Eig2((complex(lam1), complex(lam2)), (v1, v2), False)


def _eigvec(a: np.ndarray, lam: complex) -> np.ndarray | None:
    """Unit kernel vector of (a - lam I), or None when a = lam I."""
    cand1 = np.array([a[0, 1], lam - a[0, 0]], dtype=complex)
    cand2 = np.array([lam - a[1, 1], a[1, 0]], dtype=complex)
    n1 = float(np.linalg.norm(cand1))
    n2 = float(np.linalg.norm(cand2))
    scale = float(np.abs(a).max()) + abs(lam)
    if max(n1, n2) <= 1e-14 * scale:
        return None
    v = cand1 if n1 >= n2 else cand2
    return v / np.linalg.norm(v)


def expm(m, t=1.0) -> np.ndarray:
    """exp(t*M) for a 2x2 matrix; an array of times gives the stack exp(t_k*M).

    Off the degenerate band, Sylvester's formula on the two eigenvalues,
    (e^{t*l1} (M - l2*I) - e^{t*l2} (M - l1*I)) / (l1 - l2); on it, the exact
    nilpotent split exp(t*M) = e^{t*lam} (I + t*N) with N = M - lam*I. The
    result has shape ``np.shape(t) + (2, 2)``, from one eigendecomposition.
    """
    a = as_cmat(m, 2)
    (lam1, lam2), _, degenerate = eig2(a)
    ts = np.asarray(t)[..., None, None]
    shift1, shift2 = a - lam1 * np.eye(2), a - lam2 * np.eye(2)
    if degenerate:  # shift1 is N
        return np.exp(ts * lam1) * (np.eye(2, dtype=complex) + ts * shift1)
    return (np.exp(ts * lam1) * shift2 - np.exp(ts * lam2) * shift1) / (lam1 - lam2)


def sqrt_pos_hermitian(m) -> np.ndarray:
    """Unique positive square root of a positive Hermitian 2x2 matrix.

    Raises :class:`NotPositiveHermitian` unless the input is Hermitian
    within ``HERMITICITY_ATOL`` (relative to its magnitude) with both
    eigenvalues strictly positive. It works on M / 4^k (largest part near 1)
    and scales the root back by 2^k, so the determinant never over- or underflows.
    """
    entries = as_cmat(m, 2).ravel().tolist()
    k = -2 * (math.frexp(max(max(abs(v.real), abs(v.imag)) for v in entries))[1] // 2)
    w, x, y, z = (complex(math.ldexp(v.real, k), math.ldexp(v.imag, k)) for v in entries)
    skew = max(abs(2 * w.imag), abs(x - y.conjugate()), abs(2 * z.imag))  # max |M - M^dag|
    if skew > HERMITICITY_ATOL * max(abs(w), abs(x), abs(y), abs(z)):
        raise NotPositiveHermitian("matrix is not Hermitian")
    off, tr = (x + y.conjugate()) * 0.5, w.real + z.real  # h = (M + M^dag)/2
    det = w.real * z.real - (off.real * off.real + off.imag * off.imag)
    if not (tr > 0.0 and det > 0.0):  # both eigenvalues positive; no difference cancels
        raise NotPositiveHermitian("matrix has a non-positive eigenvalue")
    s = math.sqrt(det)
    r = 1.0 / math.ldexp(math.sqrt(tr + 2.0 * s), k // 2)  # numpy divides by its reciprocal
    return np.array([[(w.real + s) * r, off * r], [off.conjugate() * r, (z.real + s) * r]])


def trace_det(m) -> tuple[complex, complex]:
    """(trace, determinant) of a 2x2 or 4x4 matrix; the 4x4 determinant is
    the constant coefficient of :func:`char_poly_coeffs`."""
    a = np.asarray(m, dtype=complex)
    if a.shape == (2, 2):
        a = as_cmat(a, 2)
        return complex(a[0, 0] + a[1, 1]), complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    if a.shape == (4, 4):
        a = as_cmat(a, 4)
        return complex(np.trace(a)), complex(char_poly_coeffs(a)[-1])
    raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {a.shape}")


def char_poly_coeffs(m) -> np.ndarray:
    """Characteristic polynomial coefficients, highest order first, monic.

    Faddeev-LeVerrier recursion; exact up to roundoff for the small sizes
    used here. ``det(s*I - M) = s^n + c[1] s^{n-1} + ... + c[n]``.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    n = a.shape[0]
    coeffs = [1.0 + 0.0j]
    aux = np.zeros_like(a)
    c = 1.0 + 0.0j
    for k in range(1, n + 1):
        aux = a @ aux + c * np.eye(n)
        c = -np.trace(a @ aux) / k
        coeffs.append(complex(c))
    return np.array(coeffs)


def operator_norm(m) -> float:
    """Largest singular value of a 2x2 matrix, in closed form on Python scalars.

    sigma_max^2 = (F + sqrt(F^2 - 4|det|^2))/2 with F the squared Frobenius
    norm, taken without its cancellation at s1 ~ s2: for M = [[w, x], [y, z]]
    and u = det/|det|, (s1 +- s2)^2 = F +- 2|det| = |w +- u z*|^2 + |x -+ u y*|^2.
    Entries are first divided by a power of two, so nothing overflows.
    """
    entries = as_cmat(m, 2).ravel().tolist()
    top = max(max(abs(v.real), abs(v.imag)) for v in entries)
    unit = math.ldexp(0.5, math.frexp(top)[1])
    w, x, y, z = (v / unit for v in entries)
    det = w * z - x * y
    u = det / abs(det) if det else 1.0
    uz, uy = u * z.conjugate(), u * y.conjugate()
    p, q, r, s = w + uz, x - uy, w - uz, x + uy
    s_sum = math.hypot(p.real, p.imag, q.real, q.imag)
    s_diff = math.hypot(r.real, r.imag, s.real, s.imag)
    return unit * ((s_sum + s_diff) / 2.0)


def _mul(a, b) -> tuple:
    """Product of two 2x2 matrices given as row-major 4-sequences of scalars."""
    (a0, a1, a2, a3), (b0, b1, b2, b3) = a, b
    return (a0 * b0 + a1 * b2, a0 * b1 + a1 * b3, a2 * b0 + a3 * b2, a2 * b1 + a3 * b3)


def _apply(a, v) -> tuple:
    """Product of a row-major 2x2 4-sequence and a 2-sequence."""
    return (a[0] * v[0] + a[1] * v[1], a[2] * v[0] + a[3] * v[1])


def _adj(a) -> tuple:
    """Conjugate transpose of a row-major 2x2 4-sequence."""
    return (a[0].conjugate(), a[2].conjugate(), a[1].conjugate(), a[3].conjugate())


def _norm2(v, w) -> float:
    """Norm |v - w| of the difference of two complex 2-sequences, by hypot: nothing is squared."""
    d0, d1 = v[0] - w[0], v[1] - w[1]
    return math.hypot(d0.real, d0.imag, d1.real, d1.imag)
