"""Dense complex matrix kernel for 2x2 (and 4x4 trace/determinant) work.

Everything here is closed form: quadratic-formula eigenpairs, the matrix
exponential through eigendecomposition (with a nilpotent split at a double
eigenvalue), the unique positive square root of a positive Hermitian 2x2
matrix, and Faddeev-LeVerrier characteristic polynomials. No iterative
linear algebra is used at this size.
"""

from __future__ import annotations

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
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    return out


def as_cvec2(v) -> np.ndarray:
    """Validate and return a finite complex 2-vector."""
    out = np.asarray(v, dtype=complex).reshape(-1)
    if out.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {np.shape(v)}")
    if not np.all(np.isfinite(out)):
        raise ValueError("vector entries must be finite")
    return out


def outer(f, g) -> np.ndarray:
    """Rank-one map |f><g|: (|f><g|) h = <g, h> f."""
    return np.outer(np.asarray(f, dtype=complex), np.conj(np.asarray(g, dtype=complex)))


class Eig2(NamedTuple):
    """Closed-form 2x2 eigendecomposition result."""

    values: tuple[complex, complex]
    vectors: tuple[np.ndarray, np.ndarray]
    degenerate: bool


def eig2(m) -> Eig2:
    """Eigenpairs of a 2x2 complex matrix by the quadratic formula.

    Eigenvalues are ordered by descending imaginary part, ties broken by
    descending real part. The ``degenerate`` flag is set when the modulus of
    the characteristic-polynomial discriminant falls below
    ``DEGENERACY_RTOL * (|tr|^2 + 1)``; the matrix is then treated as having
    a double eigenvalue tr/2 (and, unless it is a multiple of the identity,
    a single eigendirection, returned twice).
    """
    a = as_cmat(m, 2)
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = tr * tr - 4.0 * det
    degenerate = bool(abs(disc) < DEGENERACY_RTOL * (abs(tr) ** 2 + 1.0))

    if degenerate:
        lam = complex(tr / 2.0)
        vec = _eigvec(a, lam)
        if vec is None:
            e1 = np.array([1.0, 0.0], dtype=complex)
            e2 = np.array([0.0, 1.0], dtype=complex)
            return Eig2((lam, lam), (e1, e2), True)
        return Eig2((lam, lam), (vec, vec.copy()), True)

    s = np.sqrt(disc)
    tie = abs(s.imag) <= ORDER_TIE_RTOL * (1.0 + abs(s))
    if (not tie and s.imag < 0) or (tie and s.real < 0):
        s = -s
    lam1 = (tr + s) / 2.0
    lam2 = (tr - s) / 2.0
    v1 = _eigvec(a, lam1)
    v2 = _eigvec(a, lam2)
    if v1 is None or v2 is None:  # scalar matrix cannot reach here, be safe
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        v1, v2 = e1, e2
    return Eig2((complex(lam1), complex(lam2)), (v1, v2), False)


def _eigvec(a: np.ndarray, lam: complex) -> np.ndarray | None:
    """Unit kernel vector of (a - lam I), or None when a = lam I."""
    cand1 = np.array([a[0, 1], lam - a[0, 0]], dtype=complex)
    cand2 = np.array([lam - a[1, 1], a[1, 0]], dtype=complex)
    n1 = float(np.linalg.norm(cand1))
    n2 = float(np.linalg.norm(cand2))
    scale = float(np.abs(a).max()) + abs(lam)
    if max(n1, n2) <= 1e-14 * (scale + 1.0):
        return None
    v = cand1 if n1 >= n2 else cand2
    return v / np.linalg.norm(v)


def inv2(m) -> np.ndarray:
    """Closed-form inverse of a 2x2 matrix."""
    a = as_cmat(m, 2)
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if det == 0:
        raise ValueError("matrix is singular")
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]], dtype=complex) / det


def expm(m, t=1.0) -> np.ndarray:
    """exp(t*M) for a 2x2 matrix; an array of times gives the stack exp(t_k*M).

    Uses V exp(t diag) V^-1 off the degenerate band; on it, the exact
    nilpotent split exp(t*M) = e^{t*lam} (I + t*N) with N = M - lam*I. The
    result has shape ``np.shape(t) + (2, 2)``, from one eigendecomposition.
    """
    a = as_cmat(m, 2)
    values, vectors, degenerate = eig2(a)
    ts = np.asarray(t)[..., None, None]
    if degenerate:
        lam = values[0]
        nil = a - lam * np.eye(2)
        return np.exp(ts * lam) * (np.eye(2, dtype=complex) + ts * nil)
    vmat = np.column_stack(vectors)
    return (vmat * np.exp(ts * np.array(values))) @ inv2(vmat)


def sqrt_pos_hermitian(m) -> np.ndarray:
    """Unique positive square root of a positive Hermitian 2x2 matrix.

    Raises :class:`NotPositiveHermitian` unless the input is Hermitian
    within ``HERMITICITY_ATOL`` (relative to its magnitude) with both
    eigenvalues strictly positive.
    """
    a = as_cmat(m, 2)
    scale = float(np.abs(a).max()) + 1.0
    if np.abs(a - a.conj().T).max() > HERMITICITY_ATOL * scale:
        raise NotPositiveHermitian("matrix is not Hermitian")
    h = (a + a.conj().T) / 2.0
    tr = float(h[0, 0].real + h[1, 1].real)
    det = float((h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]).real)
    disc = max(tr * tr - 4.0 * det, 0.0)
    lam_min = (tr - np.sqrt(disc)) / 2.0
    if lam_min <= 0.0:
        raise NotPositiveHermitian("matrix has a non-positive eigenvalue")
    s = np.sqrt(det)
    return (h + s * np.eye(2)) / np.sqrt(tr + 2.0 * s)


def trace_det(m) -> tuple[complex, complex]:
    """(trace, determinant) of a 2x2 or 4x4 matrix, by direct expansion."""
    a = np.asarray(m, dtype=complex)
    if a.shape == (2, 2):
        a = as_cmat(a, 2)
        return complex(a[0, 0] + a[1, 1]), complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    if a.shape == (4, 4):
        a = as_cmat(a, 4)
        return complex(np.trace(a)), _det4(a)
    raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {a.shape}")


def _det3(a: np.ndarray) -> complex:
    return complex(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def _det4(a: np.ndarray) -> complex:
    cols = np.arange(4)
    total = 0.0 + 0.0j
    for j in range(4):
        minor = a[1:, cols != j]
        total += (-1.0) ** j * a[0, j] * _det3(minor)
    return complex(total)


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
    """Largest singular value of a 2x2 matrix, from the Gram closed form."""
    a = as_cmat(m, 2)
    g = a.conj().T @ a
    tr = float(np.trace(g).real)
    det = float((g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real)
    disc = max(tr * tr - 4.0 * det, 0.0)
    return float(np.sqrt(max((tr + np.sqrt(disc)) / 2.0, 0.0)))
