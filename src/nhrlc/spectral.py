"""Biorthogonal eigensystems of the circuit generator and its adjoint.

With H*phi_pm = lambda_pm*phi_pm and H^dag*psi_pm = mu_pm*psi_pm, the two
eigenfamilies have the closed forms

    phi_pm ~ (1, -i*lambda_pm),     psi_pm ~ (1, -i*mu_pm/omega0^2),

and the pairing pattern <phi_a, psi_b> depends on the phase: in the broken
phase the same-index pairings are 1 and the crossed ones vanish, in the
unbroken phase it is the other way around. The inner product is
conjugate-linear in its FIRST argument throughout.

Normalization gauge: n_psi_pm = 1, with the whole phase-dependent
normalization product pushed into n_phi_pm. At the exceptional point the
eigenvectors coalesce and become self-orthogonal, <phi_EP, psi_EP> = 0;
:func:`eigensystem` refuses inside the EP band (the normalization products
diverge there) and :func:`ep_system` takes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import CircuitParams, Phase, classify
from .cxmat import as_cvec2
from .errors import ExceptionalPointError, NotExceptionalError


def pairing(x, y) -> complex:
    """<x, y>, conjugate-linear in the first slot."""
    return complex(np.vdot(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)))


@dataclass(frozen=True)
class BiorthogonalSystem:
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


@dataclass(frozen=True)
class EpSystem:
    """Coalesced eigendata at the exceptional point alpha = omega0."""

    alpha: float
    lambda_ep: complex
    mu_ep: complex
    phi_ep: np.ndarray
    psi_ep: np.ndarray

    @property
    def self_orthogonality(self) -> complex:
        return pairing(self.phi_ep, self.psi_ep)


class Modes(NamedTuple):
    """Eigenvalues of H and H^dag and the n_phi products, elementwise."""

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    mu_plus: np.ndarray
    mu_minus: np.ndarray
    n_phi_plus: np.ndarray
    n_phi_minus: np.ndarray


def modes(alpha, omega0) -> Modes:
    """Closed-form modes over arrays of (alpha, omega0), in both phases.

    lambda_pm = -i*alpha +- root, root = sqrt(omega0^2 - alpha^2) (imaginary
    for |alpha| > omega0). The larger-modulus eigenvalue (lambda- for
    alpha >= 0, lambda+ below) comes from that formula and the other from
    lambda+ * lambda- = det H = -omega0^2, so neither cancels. H^dag has
    mu_pm = i*alpha +- root = -lambda_mp; the partner conj(lambda_a) of
    lambda_a has the same index for a complex spectrum, the crossed one for
    an imaginary spectrum. n_phi_a = omega0^2/(omega0^2 + lambda_a^2)
    = +-omega0^2/(2*lambda_a*root) is non-finite at the EP. Zeros are +0.0.
    """
    # [()] turns 0-d input into numpy scalars, whose arithmetic is cheaper
    alpha = np.asarray(alpha, dtype=float)[()]
    w0 = np.asarray(omega0, dtype=float)[()]
    # a root per factor: (omega0 - alpha)*(omega0 + alpha) overflows past 1e154
    root = np.sqrt((w0 - alpha).astype(complex)) * np.sqrt((w0 + alpha).astype(complex))
    # sign bit, not alpha < 0: at alpha = -0.0 either labelling gives the same pair
    gain = np.signbit(alpha)
    big = -1j * alpha - np.copysign(1.0, alpha) * root
    small = -w0 * (w0 / big)
    lam_p, lam_m = np.where(gain, (big, small), (small, big)) + 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        n_phi_p = w0 / (2.0 * lam_p) * (w0 / root) + 0.0
        n_phi_m = -w0 / (2.0 * lam_m) * (w0 / root) + 0.0
    return Modes(lam_p, lam_m, -lam_m + 0.0, -lam_p + 0.0, n_phi_p, n_phi_m)


def eigensystem(params: CircuitParams) -> BiorthogonalSystem:
    """Phase-adapted biorthogonal eigensystem with the n_psi = 1 gauge.

    Raises :class:`ExceptionalPointError` inside the EP band, where the
    normalization products diverge; use :func:`ep_system` there.
    """
    phase = classify(params)
    if phase is Phase.EXCEPTIONAL:
        raise ExceptionalPointError(
            "eigensystem is ill-conditioned at the exceptional point; use ep_system"
        )
    alpha, w0 = params.alpha, params.omega0
    if alpha <= -w0:
        raise ValueError("alpha <= -omega0 lies outside the loss/gain phase taxonomy")
    m = Modes(*map(complex, modes(alpha, w0)))

    phi_p = m.n_phi_plus * np.array([1.0, -1j * m.lambda_plus], dtype=complex)
    phi_m = m.n_phi_minus * np.array([1.0, -1j * m.lambda_minus], dtype=complex)
    psi_p = np.array([1.0, -1j * m.mu_plus / w0 ** 2], dtype=complex)
    psi_m = np.array([1.0, -1j * m.mu_minus / w0 ** 2], dtype=complex)

    return BiorthogonalSystem(
        phase=phase,
        alpha=alpha,
        omega0=w0,
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
    """Coalesced eigenvectors at alpha = omega0; they are self-orthogonal."""
    if classify(params) is not Phase.EXCEPTIONAL:
        raise NotExceptionalError("parameters are away from the exceptional point")
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
    vec = as_cvec2(f)
    if system.phase is Phase.BROKEN:
        return pairing(system.psi_plus, vec), pairing(system.psi_minus, vec)
    return pairing(system.psi_minus, vec), pairing(system.psi_plus, vec)
