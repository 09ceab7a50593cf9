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

from dataclasses import dataclass, replace

import numpy as np

from .circuit import CircuitParams, Phase, classify
from .cxmat import as_cmat, outer, sqrt_pos_hermitian
from .errors import ExistenceViolation
from .metric import MetricPair
from .spectral import BiorthogonalSystem, eigensystem, pairing

EXISTENCE_ATOL = 1e-10
PT_ATOL = 1e-12

PARITY = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class PseudoFermionPair:
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


@dataclass(frozen=True)
class FermionizedSystem:
    """Genuine fermion pair obtained by conjugating with metric square roots."""

    a_op: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    h_fho: np.ndarray
    h_susy: np.ndarray


def pf_construct(a, b, a12, b12, omega=0.0, rho=0.0) -> PseudoFermionPair:
    """Build the ladder pair from raw parameters, enforcing existence.

    Raises :class:`ExistenceViolation` unless (a - b) * gamma = 1 within
    ``EXISTENCE_ATOL``; a = b (the exceptional configuration) always fails.
    """
    a, b, a12, b12 = complex(a), complex(b), complex(a12), complex(b12)
    gamma = a12 * b12 * (b - a)
    if abs((a - b) * gamma - 1.0) > EXISTENCE_ATOL:
        raise ExistenceViolation(
            f"(a - b) * gamma = {(a - b) * gamma:.6g}, ladder pair requires 1"
        )
    c_op = a12 * np.array([[a, 1.0], [-a * a, -a]], dtype=complex)
    cc_op = b12 * np.array([[b, 1.0], [-b * b, -b]], dtype=complex)
    return PseudoFermionPair(
        a=a, b=b, a12=a12, b12=b12, gamma=gamma,
        omega=complex(omega), rho=complex(rho), c_op=c_op, cc_op=cc_op,
    )


def _branch_parameters(system: BiorthogonalSystem, branch: str):
    """(a, b, rho, omega) of a branch; rho is the eigenvalue whose adjoint
    partner mu = conj(rho) carries the branch's index."""
    if branch not in ("plus", "minus"):
        raise ValueError("branch must be 'plus' or 'minus'")
    rho, other = system.mu_plus.conjugate(), system.mu_minus.conjugate()
    if branch == "minus":
        rho, other = other, rho
    a, b = 1j * rho, 1j * other
    # pf_construct recomputes gamma from a12, b12; omega = i/gamma = i*(a - b)
    return a, b, rho, 1j * (a - b)


def _ladder_basis(system: BiorthogonalSystem, rho: complex):
    """Relabel the eigensystem so phi_minus carries eigenvalue rho, and
    attach the dual (pairing-1) adjoint vectors."""
    if abs(rho - system.lambda_minus) <= abs(rho - system.lambda_plus):
        phi_m, phi_p = system.phi_minus, system.phi_plus
    else:
        phi_m, phi_p = system.phi_plus, system.phi_minus
    dual_m = system.psi_plus if abs(pairing(phi_m, system.psi_plus)) > 0.5 else system.psi_minus
    dual_p = system.psi_plus if abs(pairing(phi_p, system.psi_plus)) > 0.5 else system.psi_minus
    return phi_m, phi_p, dual_m, dual_p


def pf_identify(params: CircuitParams, branch: str = "plus") -> PseudoFermionPair:
    """Identify the circuit generator with a ladder pair on the given branch.

    The two branches swap c with C (and the eigenvalue assignment). The
    scale split between a12 and b12 is fixed by the bra-ket forms
    c = |phi-><dual(phi+)|, C = |phi+><dual(phi-)| built from the
    normalized eigenbasis, which satisfies the existence condition
    identically. Raises :class:`ExistenceViolation` inside the EP band.
    """
    if classify(params) is Phase.EXCEPTIONAL:
        raise ExistenceViolation(
            "a = b at the exceptional point; no ladder pair exists there"
        )
    system = eigensystem(params)
    a, b, rho, omega = _branch_parameters(system, branch)
    phi_m, phi_p, dual_m, dual_p = _ladder_basis(system, rho)
    a12 = complex(outer(phi_m, dual_p)[0, 1])
    b12 = complex(outer(phi_p, dual_m)[0, 1])
    pf = pf_construct(a, b, a12, b12, omega=omega, rho=rho)
    return replace(pf, phi_minus=phi_m, phi_plus=phi_p, psi_minus=dual_m, psi_plus=dual_p)


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
    phi_m, phi_p, psi_m, psi_p = _ladder_basis(system, pf.rho)
    c, cc = pf.c_op, pf.cc_op
    cd, ccd = c.conj().T, cc.conj().T
    n_phi = cc @ c
    n_psi = cd @ ccd

    def r(vec) -> float:
        return float(np.linalg.norm(vec))

    return {
        "c_phi_minus": r(c @ phi_m),
        "c_phi_plus": r(c @ phi_p - phi_m),
        "cc_phi_minus": r(cc @ phi_m - phi_p),
        "cc_phi_plus": r(cc @ phi_p),
        "ccdag_psi_minus": r(ccd @ psi_m),
        "ccdag_psi_plus": r(ccd @ psi_p - psi_m),
        "cdag_psi_minus": r(cd @ psi_m - psi_p),
        "cdag_psi_plus": r(cd @ psi_p),
        "nphi_phi_minus": r(n_phi @ phi_m),
        "nphi_phi_plus": r(n_phi @ phi_p - phi_p),
        "npsi_psi_minus": r(n_psi @ psi_m),
        "npsi_psi_plus": r(n_psi @ psi_p - psi_p),
    }


def fermionize(pf: PseudoFermionPair, pair: MetricPair) -> FermionizedSystem:
    """Conjugate the ladder pair into a genuine fermion pair.

    With E = S_psi^(1/2) (positive pair required; the square-root kernel
    raises :class:`NotPositiveHermitian` otherwise):

        A = E c E^-1,    A^dag = E C E^-1,    e_pm = E phi_pm,

    so {A, A^dag} = 1, A^2 = 0, the e_pm are orthonormal, and
    H = S_phi^(1/2) H_fho S_psi^(1/2) with H_fho = omega * A^dag A + rho * 1.
    """
    root_psi = sqrt_pos_hermitian(pair.s_psi)
    root_phi = sqrt_pos_hermitian(pair.s_phi)
    a_op = root_psi @ pf.c_op @ root_phi
    if pf.phi_minus is not None and pf.phi_plus is not None:
        e_minus = root_psi @ pf.phi_minus
        e_plus = root_psi @ pf.phi_plus
    else:
        phi_m = np.array([1.0, -pf.a], dtype=complex)
        phi_p = pf.cc_op @ phi_m
        e_minus = root_psi @ phi_m
        e_plus = root_psi @ phi_p
        e_minus = e_minus / np.linalg.norm(e_minus)
        e_plus = e_plus / np.linalg.norm(e_plus)
    h_fho = pf.omega * (a_op.conj().T @ a_op) + pf.rho * np.eye(2, dtype=complex)
    return FermionizedSystem(
        a_op=a_op, e_plus=e_plus, e_minus=e_minus,
        h_fho=h_fho, h_susy=susy_partner(pf),
    )


def susy_partner(pf: PseudoFermionPair) -> np.ndarray:
    """H^S = omega * c C + rho * 1; same spectrum as H_PF with the
    eigenvalue roles of phi_pm swapped."""
    return pf.omega * (pf.c_op @ pf.cc_op) + pf.rho * np.eye(2, dtype=complex)


def pt_probe(h, v) -> tuple[np.ndarray, np.ndarray]:
    """(H PT v, PT H v) for the parity-times-conjugation operator."""
    a = as_cmat(h, 2)
    vec = np.asarray(v, dtype=complex)
    return a @ (PARITY @ np.conj(vec)), PARITY @ np.conj(a @ vec)


@dataclass(frozen=True)
class PtReport:
    """Commutator probe residuals of H with parity-times-conjugation."""

    probe_residuals: tuple[float, float, float, float]
    is_pt_symmetric: bool


def pt_check(h) -> PtReport:
    """Probe [PT, H] on e1, e2, i*e1, i*e2.

    PT is antilinear, so agreement on the four probes settles the operator
    identity. For circuit generators the flag is true exactly when
    omega0 = 1 and alpha = 0 (the lossless unit-frequency LC circuit).
    """
    probes = (
        np.array([1.0, 0.0], dtype=complex),
        np.array([0.0, 1.0], dtype=complex),
        np.array([1j, 0.0], dtype=complex),
        np.array([0.0, 1j], dtype=complex),
    )
    residuals = []
    for v in probes:
        left, right = pt_probe(h, v)
        residuals.append(float(np.linalg.norm(left - right)))
    return PtReport(
        probe_residuals=tuple(residuals),
        is_pt_symmetric=bool(max(residuals) < PT_ATOL),
    )
