"""Metric operators, the similar Hamiltonian h, and intertwining algebra.

H and H^dag are never intertwined by an invertible operator (they are not
isospectral), but each phase admits a pair of mutually inverse operators
mapping one eigenfamily onto the other:

* broken phase: the positive sums S_phi f = sum <phi_a, f> phi_a and
  S_psi f = sum <psi_a, f> psi_a, which satisfy S_phi psi_pm = phi_pm;
* unbroken phase: the crossed sums T_phi f = <phi+, f> phi- + <phi-, f> phi+
  (and the psi analogue), which satisfy T_phi psi_pm = phi_pm there.

Conjugating H with the pair produces h = S_psi H S_phi (resp. T_psi H T_phi),
isospectral to H with h psi_a = lambda_a psi_a, and the intertwining
relations H S_phi = S_phi h etc. hold. The same h arises from the antilinear
map U f = sum <f, phi_a> psi_a as h = U H^dag U.

Antilinear maps are kept as procedures on vectors; representing them as
matrices would silently linearize them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .circuit import Phase
from .cxmat import _apply, as_cmat, as_cvec2, operator_norm, outer
from .mequiv import _coincidence
from .spectral import BiorthogonalSystem


class MetricPair(NamedTuple):
    """Mutually inverse mapping pair; kind "S" is Hermitian positive."""

    s_phi: np.ndarray
    s_psi: np.ndarray
    kind: str  # "S" (positive sums) or "T" (crossed sums)


class IntertwinerReport(NamedTuple):
    """Operator-norm residuals of the three intertwining relations."""

    residual_h_sphi: float  # H S_phi - S_phi h
    residual_spsi_h: float  # S_psi H - h S_psi
    residual_adjoint: float  # H^dag S_psi - S_psi h^dag


def metric_pair(system: BiorthogonalSystem) -> MetricPair:
    """Phase-adapted mapping pair: S-kind in the broken phase, T-kind in the unbroken."""
    if system.phase is Phase.BROKEN:
        return positive_pair(system)
    t_phi = outer(system.phi_minus, system.phi_plus) + outer(system.phi_plus, system.phi_minus)
    t_psi = outer(system.psi_minus, system.psi_plus) + outer(system.psi_plus, system.psi_minus)
    return MetricPair(s_phi=t_phi, s_psi=t_psi, kind="T")


def positive_pair(system: BiorthogonalSystem) -> MetricPair:
    """Hermitian positive sums over each eigenfamily, mutually inverse in both phases.

    In the broken phase these map psi_pm -> phi_pm; in the unbroken phase
    they map with a label swap, psi_pm -> phi_mp, which is what the
    fermionization square roots need.
    """
    s_phi = outer(system.phi_plus, system.phi_plus) + outer(system.phi_minus, system.phi_minus)
    s_psi = outer(system.psi_plus, system.psi_plus) + outer(system.psi_minus, system.psi_minus)
    return MetricPair(s_phi=s_phi, s_psi=s_psi, kind="S")


def similar_hamiltonian(system: BiorthogonalSystem, pair: MetricPair, h) -> np.ndarray:
    """h = S_psi H S_phi (T_psi H T_phi in the unbroken phase), in closed form.

    h psi_a = lambda_a psi_a and h^dag phi_a = mu_a phi_a. As mu_pm = -lambda_mp,
    H^dag + tr(H) I has exactly these eigenpairs in both phases, so it is h;
    ``system`` and ``pair`` do not enter the result.
    """
    a = as_cmat(h, 2)
    return a.conj().T + np.trace(a) * np.eye(2)


def antilinear_u(system: BiorthogonalSystem, f) -> np.ndarray:
    """Antilinear map U f = sum_a <f, phi_a> psi_a (conjugate-linear in f).

    In the broken phase U fixes psi_pm; in the unbroken phase it swaps them,
    U psi_pm = psi_mp, which is exactly what makes U H^dag U isospectral to
    H there.
    """
    f_bar = [v.conjugate() for v in as_cvec2(f).tolist()]
    pairings = _apply(system.phi_plus.tolist() + system.phi_minus.tolist(), f_bar)  # <f, phi_pm>
    (sp0, sp1), (sm0, sm1) = system.psi_plus.tolist(), system.psi_minus.tolist()
    return np.array(_apply((sp0, sm0, sp1, sm1), pairings))


def similar_hamiltonian_via_u(system: BiorthogonalSystem, h_dagger) -> np.ndarray:
    """Evaluate the linear operator U H^dag U columnwise on the standard basis.

    Agrees with :func:`similar_hamiltonian` on the pair from
    :func:`metric_pair`; the antilinear U is only ever applied, never stored
    as a matrix.
    """
    hd = as_cmat(h_dagger, 2).ravel().tolist()
    cols = [antilinear_u(system, _apply(hd, antilinear_u(system, e).tolist())).tolist()
            for e in ((1.0, 0.0), (0.0, 1.0))]
    return np.array(list(zip(*cols)))


def verify_intertwining(h, h_similar, pair: MetricPair) -> IntertwinerReport:
    """Operator-norm residuals of H S_phi = S_phi h and its companions."""
    a = as_cmat(h, 2)
    b = as_cmat(h_similar, 2)
    return IntertwinerReport(
        residual_h_sphi=operator_norm(a @ pair.s_phi - pair.s_phi @ b),
        residual_spsi_h=operator_norm(pair.s_psi @ a - b @ pair.s_psi),
        residual_adjoint=operator_norm(
            a.conj().T @ pair.s_psi - pair.s_psi @ b.conj().T
        ),
    )


def solve_intertwiners(a, b) -> list[np.ndarray]:
    """Basis of {X : A X = X B}, via the flattened 4x4 homogeneous system.

    Its dimension is the coincidence rule's (:mod:`nhrlc.mequiv`). On the
    balanced pair A_b = D_A^-1 A D_A, B_b = D_B^-1 B D_B, Y -> A_b Y - Y B_b
    is kron(A_b, I) - kron(I, B_b^T) row-major; its ``dim`` smallest right
    singular vectors Y map back as D_A Y D_B^-1, over one power of two. The
    reversed relation X A = B X is ``solve_intertwiners(B, A)``.
    """
    *_, dim, (amat, bmat), undo = _coincidence(a, b)
    if not dim:
        return []
    eye = np.eye(2, dtype=complex)
    vh = np.linalg.svd(np.kron(amat, eye) - np.kron(eye, bmat.T))[2]
    return [np.conj(v).reshape(2, 2) * np.ldexp(1.0, undo) for v in vh[4 - dim:]]
