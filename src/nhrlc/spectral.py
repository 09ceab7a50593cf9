"""Biorthogonal eigensystems of the circuit generator and its adjoint.

With H*phi_pm = lambda_pm*phi_pm and H^dag*psi_pm = mu_pm*psi_pm, the
eigenvalue pair alone fixes both families (mu_pm = -lambda_mp and
lambda_+ * lambda_- = -omega0^2):

    phi_pm = n_phi_pm*(1, -i*lambda_pm),     psi_pm = (1, -i/lambda_pm),

and the pairing pattern <phi_a, psi_b> depends on the phase: in the broken
phase the same-index pairings are 1 and the crossed ones vanish, in the
unbroken phase it is the other way around. The inner product is
conjugate-linear in its FIRST argument throughout.

Normalization gauge: n_psi_pm = 1, and phi carries the whole phase-dependent
product n_phi_pm = -+lambda_mp/(lambda_+ - lambda_-). At the EP the
eigenvectors coalesce and become self-orthogonal, <phi_EP, psi_EP> = 0;
:func:`eigensystem` refuses inside the EP band (the normalization products
diverge there) and :func:`ep_system` takes over. The closed form, :func:`modes`,
runs on Python scalars; numpy is imported only by the functions that form arrays.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .circuit import CircuitParams, Phase, classify
from .errors import ExceptionalPointError, NotExceptionalError

_last: tuple = (None, None)  # (params, system) of the last build; refusals are not stored


def pairing(x, y) -> complex:
    """<x, y>, conjugate-linear in the first slot."""
    import numpy as np

    return complex(np.vdot(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)))


class BiorthogonalSystem(NamedTuple):
    """Eigenvalues, normalized eigenvectors and their pairings for one circuit."""

    phase: Phase
    alpha: float
    omega0: float
    lambda_plus: complex
    lambda_minus: complex
    mu_plus: complex
    mu_minus: complex
    n_phi_plus: complex
    n_phi_minus: complex
    n_psi_plus: complex
    n_psi_minus: complex
    phi_plus: np.ndarray
    phi_minus: np.ndarray
    psi_plus: np.ndarray
    psi_minus: np.ndarray
    n_pp: complex  # <phi+, psi+>
    n_pm: complex  # <phi+, psi->
    n_mp: complex  # <phi-, psi+>
    n_mm: complex  # <phi-, psi->

    @property
    def duals(self) -> tuple[np.ndarray, np.ndarray]:
        """(dual of phi+, dual of phi-): the psi pairing to 1 with each phi,
        the same index in the broken phase and the crossed one otherwise."""
        if self.phase is Phase.BROKEN:
            return self.psi_plus, self.psi_minus
        return self.psi_minus, self.psi_plus


class EpSystem(NamedTuple):
    """Coalesced eigendata at the exceptional point |alpha| = omega0."""

    alpha: float
    lambda_ep: complex
    mu_ep: complex
    phi_ep: np.ndarray
    psi_ep: np.ndarray

    @property
    def self_orthogonality(self) -> complex:
        return pairing(self.phi_ep, self.psi_ep)


class Modes(NamedTuple):
    """Eigenvalues of H and H^dag and the n_phi products at one (alpha, omega0)."""

    lambda_plus: complex
    lambda_minus: complex
    mu_plus: complex
    mu_minus: complex
    n_phi_plus: complex
    n_phi_minus: complex


def _div(a: complex, b: complex) -> complex:
    """a / b as numpy divides: Smith's method, then times the reciprocal of the scaled divisor,
    which Python's ``/`` divides by; a zero b gives numpy's inf or nan, each part times inf."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    if abs(br) >= abs(bi):
        if not br:
            return complex(ar * math.inf, ai * math.inf)
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((ar + ai * rat) * scl, (ai - ar * rat) * scl)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((ar * rat + ai) * scl, (ai * rat - ar) * scl)


def modes(alpha: float, omega0: float) -> Modes:
    """Closed-form modes at one finite alpha and omega0 > 0, in both phases.

    lambda_pm = -i*alpha +- root, root = sqrt(omega0^2 - alpha^2) (imaginary
    for |alpha| > omega0). The larger-modulus eigenvalue (lambda- for
    alpha >= 0, lambda+ below) comes from that formula and the other from
    lambda+ * lambda- = det H = -omega0^2, so neither cancels. H^dag has
    mu_pm = i*alpha +- root = -lambda_mp; the partner conj(lambda_a) of
    lambda_a has the same index for a complex spectrum, the crossed one for
    an imaginary spectrum. n_phi_pm = -+lambda_mp/(2*root) divides by no
    eigenvalue and is non-finite at the EP, with no exception. Zeros are +0.0.
    Python complex results, bit for bit numpy's complex128 arithmetic: Python forms
    sums and products as numpy does, :func:`_div` its quotients. Arrays are a TypeError.
    """
    alpha, w0 = float(alpha), float(omega0)
    # a root per quartered factor: (omega0 - alpha)*(omega0 + alpha) overflows
    # past 1e154 and omega0 + alpha past 1.8e308; sqrt(x/4) = sqrt(x)/2 exactly.
    # The root is imaginary where one factor is negative, in the unbroken phase
    w4, a4 = w0 / 4, alpha / 4
    size = 4.0 * (math.sqrt(abs(w4 - a4)) * math.sqrt(abs(w4 + a4)))
    root = complex(size, 0.0) if abs(a4) <= w4 else complex(0.0, size)
    # sign bit, not alpha < 0: at alpha = -0.0 either labelling gives the same pair
    gain = math.copysign(1.0, alpha) < 0
    big = -1j * alpha - (-1 + 0j if gain else 1 + 0j) * root
    small = complex(-w0) * _div(complex(w0), big)
    lam_p, lam_m = (big + 0j, small + 0j) if gain else (small + 0j, big + 0j)
    n_phi_p = _div(-lam_m, root) / (2 + 0j) + 0j
    n_phi_m = _div(lam_p, root) / (2 + 0j) + 0j
    return Modes(lam_p, lam_m, -lam_m + 0j, -lam_p + 0j, n_phi_p, n_phi_m)


def eigensystem(params: CircuitParams) -> BiorthogonalSystem:
    """Phase-adapted biorthogonal eigensystem with the n_psi = 1 gauge:
    phi_pm = n_phi_pm*(1, -i*lambda_pm), psi_pm = (1, -i/lambda_pm) from :func:`modes`.

    A repeat call with the last built params object (that object: 0.0 == -0.0)
    returns the same system; its eigenvector arrays are read-only, as callers share them.
    Raises :class:`ExceptionalPointError` inside the EP band; use :func:`ep_system`.
    Raises ``ValueError`` if an eigenvector entry is not finite (|lambda| < 1/max float).
    """
    global _last
    last = _last
    if params is not last[0]:
        last = _last = (params, _build(params))
    return last[1]


def _build(params: CircuitParams) -> BiorthogonalSystem:
    phase = classify(params)
    if phase is Phase.EXCEPTIONAL:
        raise ExceptionalPointError(
            "eigensystem is ill-conditioned at the exceptional point; use ep_system"
        )
    import numpy as np

    m = modes(params.alpha, params.omega0)

    phi_p = m.n_phi_plus * np.array([1.0, -1j * m.lambda_plus], dtype=complex)
    phi_m = m.n_phi_minus * np.array([1.0, -1j * m.lambda_minus], dtype=complex)
    psi_p = np.array([1.0, -1j / m.lambda_plus], dtype=complex)
    psi_m = np.array([1.0, -1j / m.lambda_minus], dtype=complex)
    for vec in (phi_p, phi_m, psi_p, psi_m):
        if not all(map(cmath.isfinite, vec.tolist())):
            raise ValueError("an eigenvector entry is not finite")
        vec.setflags(write=False)

    return BiorthogonalSystem(
        phase=phase,
        alpha=params.alpha,
        omega0=params.omega0,
        **m._asdict(),
        n_psi_plus=1.0 + 0.0j,
        n_psi_minus=1.0 + 0.0j,
        phi_plus=phi_p,
        phi_minus=phi_m,
        psi_plus=psi_p,
        psi_minus=psi_m,
        n_pp=pairing(phi_p, psi_p),
        n_pm=pairing(phi_p, psi_m),
        n_mp=pairing(phi_m, psi_p),
        n_mm=pairing(phi_m, psi_m),
    )


def ep_system(params: CircuitParams) -> EpSystem:
    """Coalesced, self-orthogonal eigenvectors at |alpha| = omega0, loss or gain."""
    if classify(params) is not Phase.EXCEPTIONAL:
        raise NotExceptionalError("parameters are away from the exceptional point")
    import numpy as np

    alpha = params.alpha
    return EpSystem(
        alpha=alpha,
        lambda_ep=complex(-1j * alpha),
        mu_ep=complex(1j * alpha),
        phi_ep=np.array([1.0, -alpha], dtype=complex),
        psi_ep=np.array([1.0, 1.0 / alpha], dtype=complex),
    )


def expand(system: BiorthogonalSystem, f) -> tuple[complex, complex]:
    """Coefficients (b+, b-) with f = b+*phi+ + b-*phi-.

    In the broken phase b_pm = <psi_pm, f>; in the unbroken phase the
    crossed pairings resolve the identity, so b_pm = <psi_mp, f>.
    """
    import nhrlc.cxmat as cxmat

    vec = cxmat.as_cvec2(f)
    dual_p, dual_m = system.duals
    return pairing(dual_p, vec), pairing(dual_m, vec)
