"""Ladder-operator (deformed fermion) factorization of the circuit generator.

A pair of 2x2 operators c, C with {c, C} = 1 and c^2 = C^2 = 0 (but C != c^dag
in general) has the two-parameter family of representations

    c = a12 * [[a, 1], [-a^2, -a]],      C = b12 * [[b, 1], [-b^2, -b]],

subject to the existence condition (a - b) * gamma = 1 with
gamma = a12 * b12 * (b - a). Out of such a pair one builds

    H_PF = omega * C c + rho * 1,

whose spectrum is {rho, rho + omega}. The circuit generator H is of this form
in both phases, with branch-dependent parameter choices; at the exceptional
point a = b and the existence condition cannot hold, so no representation
exists there.

Label convention: phi_minus/psi_minus always denote the modes annihilated by
c and C^dag (eigenvalue rho), phi_plus/psi_plus the raised ones (rho + omega).
Whether these match the eigenvalue-ordered labels of :mod:`nhrlc.spectral`
depends on phase and branch: they coincide for plus/unbroken and
minus/broken, and swap for the other two, which is what turns c into C when
the branch flips. In bra-ket form c = |phi-><dual(phi+)| and
C = |phi+><dual(phi-)|, where dual(phi) is the adjoint-family vector pairing
to 1 with phi; the dual carries the same index as phi in the broken phase and
the opposite one in the unbroken phase.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .circuit import CircuitParams, Phase, classify
from .cxmat import _adj, _apply, _mul, _norm2, as_cmat, sqrt_pos_hermitian
from .errors import ExistenceViolation
from .metric import MetricPair
from .spectral import BiorthogonalSystem, eigensystem

EXISTENCE_ATOL = 1e-10
PT_ATOL = 1e-12

PARITY = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# e1, e2, i*e1, i*e2 as columns: PT is antilinear, so these four settle [PT, H]
PT_PROBES = np.array([[1.0, 0.0, 1j, 0.0], [0.0, 1.0, 0.0, 1j]])


class PseudoFermionPair(NamedTuple):
    """Ladder pair (c, C) with its parameters and, when identified from a
    circuit, the ladder-adapted eigenbasis."""

    a: complex
    b: complex
    a12: complex
    b12: complex
    gamma: complex
    omega: complex
    rho: complex
    c_op: np.ndarray
    cc_op: np.ndarray
    phi_minus: np.ndarray | None = None
    phi_plus: np.ndarray | None = None
    psi_minus: np.ndarray | None = None
    psi_plus: np.ndarray | None = None


class FermionizedSystem(NamedTuple):
    """Genuine fermion pair obtained by conjugating with metric square roots."""

    a_op: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    h_fho: np.ndarray
    h_susy: np.ndarray


def pf_construct(a, b, a12, b12, omega=0.0, rho=0.0) -> PseudoFermionPair:
    """Build the ladder pair from raw parameters, enforcing existence.

    Raises :class:`ExistenceViolation` unless (a - b) * gamma = 1 within
    ``EXISTENCE_ATOL``; a = b (the exceptional configuration) and any NaN
    or infinite parameter always fail.
    """
    a, b, a12, b12 = complex(a), complex(b), complex(a12), complex(b12)
    gamma = a12 * b12 * (b - a)
    if not abs((a - b) * gamma - 1.0) <= EXISTENCE_ATOL:
        raise ExistenceViolation(
            f"(a - b) * gamma = {(a - b) * gamma:.6g}, ladder pair requires 1"
        )
    c_op = a12 * np.array([[a, 1.0], [-a * a, -a]], dtype=complex)
    cc_op = b12 * np.array([[b, 1.0], [-b * b, -b]], dtype=complex)
    return PseudoFermionPair(
        a=a, b=b, a12=a12, b12=b12, gamma=gamma,
        omega=complex(omega), rho=complex(rho), c_op=c_op, cc_op=cc_op,
    )


def _ladder_basis(system: BiorthogonalSystem, rho: complex):
    """Relabel the eigensystem so phi_minus carries eigenvalue rho, and
    attach the dual (pairing-1) adjoint vectors."""
    dual_p, dual_m = system.duals
    if abs(rho - system.lambda_minus) <= abs(rho - system.lambda_plus):
        return system.phi_minus, system.phi_plus, dual_m, dual_p
    return system.phi_plus, system.phi_minus, dual_p, dual_m


def pf_identify(params: CircuitParams, branch: str = "plus") -> PseudoFermionPair:
    """Identify the circuit generator with a ladder pair on the given branch.

    The branch is the index of the adjoint partner mu = conj(rho) of the
    ladder's base eigenvalue rho; the two branches swap c with C. The
    scale split between a12 and b12 is fixed by the bra-ket forms
    c = |phi-><dual(phi+)|, C = |phi+><dual(phi-)| built from the
    normalized eigenbasis, which satisfies the existence condition
    identically. Raises :class:`ExistenceViolation` inside the EP band.
    """
    if classify(params) is Phase.EXCEPTIONAL:
        raise ExistenceViolation(
            "a = b at the exceptional point; no ladder pair exists there"
        )
    if branch not in ("plus", "minus"):
        raise ValueError("branch must be 'plus' or 'minus'")
    system = eigensystem(params)
    rho, other = system.mu_plus.conjugate(), system.mu_minus.conjugate()
    if branch == "minus":
        rho, other = other, rho
    a, b = 1j * rho, 1j * other
    phi_m, phi_p, dual_m, dual_p = _ladder_basis(system, rho)
    # the [0, 1] entries of |phi-><dual(phi+)| and |phi+><dual(phi-)|, by numpy's product
    a12, b12 = (np.array((phi_m[0], phi_p[0])) * np.conj((dual_p[1], dual_m[1]))).tolist()
    # pf_construct recomputes gamma; omega = i/gamma = i*(a - b)
    return pf_construct(a, b, a12, b12, omega=1j * (a - b), rho=rho)._replace(
        phi_minus=phi_m, phi_plus=phi_p, psi_minus=dual_m, psi_plus=dual_p
    )


def hpf_build(pf: PseudoFermionPair) -> np.ndarray:
    """H_PF = omega * C c + rho * 1 = [[w*g*a + rho, w*g], [-w*g*a*b, -w*g*b + rho]]."""
    wg = pf.omega * pf.gamma
    return np.array(
        [[wg * pf.a + pf.rho, wg], [-wg * pf.a * pf.b, -wg * pf.b + pf.rho]],
        dtype=complex,
    )


def ladder_check(pf: PseudoFermionPair, system: BiorthogonalSystem) -> dict[str, float]:
    """Residuals of the twelve ladder/number-operator relations.

    c and C lower/raise the phi family; their adjoints act the same way on
    the dual psi family; N_phi = C c and N_psi = c^dag C^dag annihilate the
    minus modes and fix the plus modes. The system must come from the same
    circuit parameters; its labels are branch-adapted internally.
    """
    phi_m, phi_p, psi_m, psi_p = (v.tolist() for v in _ladder_basis(system, pf.rho))
    c, cc = pf.c_op, pf.cc_op
    # N_phi, N_psi stay numpy products: C c cancels, so its rounding must be numpy's
    n_phi, n_psi = (cc @ c).ravel().tolist(), (c.conj().T @ cc.conj().T).ravel().tolist()
    c, cc = c.ravel().tolist(), cc.ravel().tolist()
    cd, ccd, zero = _adj(c), _adj(cc), (0.0, 0.0)
    return {name: _norm2(_apply(op, v), image) for name, op, v, image in (
        ("c_phi_minus", c, phi_m, zero), ("c_phi_plus", c, phi_p, phi_m),
        ("cc_phi_minus", cc, phi_m, phi_p), ("cc_phi_plus", cc, phi_p, zero),
        ("ccdag_psi_minus", ccd, psi_m, zero), ("ccdag_psi_plus", ccd, psi_p, psi_m),
        ("cdag_psi_minus", cd, psi_m, psi_p), ("cdag_psi_plus", cd, psi_p, zero),
        ("nphi_phi_minus", n_phi, phi_m, zero), ("nphi_phi_plus", n_phi, phi_p, phi_p),
        ("npsi_psi_minus", n_psi, psi_m, zero), ("npsi_psi_plus", n_psi, psi_p, psi_p),
    )}


def fermionize(pf: PseudoFermionPair, pair: MetricPair) -> FermionizedSystem:
    """Conjugate the ladder pair into a genuine fermion pair.

    With E = S_psi^(1/2) (positive pair required; the square-root kernel
    raises :class:`NotPositiveHermitian` otherwise):

        A = E c E^-1,    A^dag = E C E^-1,    e_pm = E phi_pm,

    so {A, A^dag} = 1, A^2 = 0, the e_pm are orthonormal, and
    H = S_phi^(1/2) H_fho S_psi^(1/2) with H_fho = omega * A^dag A + rho * 1.
    A pair without the ladder basis of :func:`pf_identify` raises ``ValueError``.
    """
    if pf.phi_minus is None or pf.phi_plus is None:
        raise ValueError("fermionize needs the ladder basis of a pf_identify pair")
    root_psi, root_phi = (sqrt_pos_hermitian(s).ravel().tolist() for s in (pair.s_psi, pair.s_phi))
    a_op = _mul(_mul(root_psi, pf.c_op.ravel().tolist()), root_phi)
    e_plus, e_minus = (np.array(_apply(root_psi, v.tolist())) for v in (pf.phi_plus, pf.phi_minus))
    return FermionizedSystem(
        a_op=np.array(a_op).reshape(2, 2), e_plus=e_plus, e_minus=e_minus,
        h_fho=_number_form(pf, _mul(_adj(a_op), a_op)), h_susy=susy_partner(pf),
    )


def _number_form(pf: PseudoFermionPair, n) -> np.ndarray:
    """omega * N + rho * 1 for a row-major 2x2 4-sequence N."""
    w, rho = pf.omega, pf.rho
    return np.array([[w * n[0] + rho, w * n[1]], [w * n[2], w * n[3] + rho]])


def susy_partner(pf: PseudoFermionPair) -> np.ndarray:
    """H^S = omega * c C + rho * 1; same spectrum as H_PF with the
    eigenvalue roles of phi_pm swapped."""
    return _number_form(pf, _mul(pf.c_op.ravel().tolist(), pf.cc_op.ravel().tolist()))


def pt_probe(h, v) -> tuple[np.ndarray, np.ndarray]:
    """(H PT v, PT H v) for the parity-times-conjugation operator; ``v`` is a
    2-vector or a 2xk block of probe vectors as columns."""
    a = as_cmat(h, 2)
    vec = np.asarray(v, dtype=complex)
    return a @ (PARITY @ np.conj(vec)), PARITY @ np.conj(a @ vec)


class PtReport(NamedTuple):
    """Commutator probe residuals of H with parity-times-conjugation."""

    probe_residuals: tuple[float, float, float, float]
    is_pt_symmetric: bool


def pt_check(h) -> PtReport:
    """Probe [PT, H] on e1, e2, i*e1, i*e2.

    PT is antilinear, so agreement on the four probes settles the operator
    identity. For circuit generators the flag is true exactly when
    omega0 = 1 and alpha = 0 (the lossless unit-frequency LC circuit).
    """
    left, right = pt_probe(h, PT_PROBES)
    # column norms as hypot of entry moduli: squared entries overflow past 1e154
    residuals = tuple(np.hypot(*np.abs(left - right)).tolist())
    return PtReport(probe_residuals=residuals, is_pt_symmetric=max(residuals) < PT_ATOL)
