"""Non-Hermitian spectral toolkit for the series RLC circuit.

The source-free series RLC circuit, written as a Schroedinger-like system
i*Phi' = H*Phi, is generated by a non-Hermitian 2x2 matrix whose spectrum
changes character with the damping: purely imaginary (overdamped, "unbroken"
regime), genuinely complex (underdamped, "broken" regime), or coalescent at
the critically damped exceptional point. The package provides the
biorthogonal eigensystems of H and its adjoint, the phase-adapted metric
pairs and the similar Hamiltonian they induce, a ladder-operator
factorization with its fermionized form, trace/determinant circuit
equivalence, and transient dynamics computed by three independent routes.
"""

from .circuit import (
    CircuitParams,
    EP_BAND_RTOL,
    Phase,
    classify,
    gain_hamiltonian,
    hamiltonian,
    hermitian_split,
)
from .cxmat import (
    Eig2,
    char_poly_coeffs,
    eig2,
    expm,
    operator_norm,
    sqrt_pos_hermitian,
    trace_det,
)
from .dynamics import (
    InitialData,
    Trajectory,
    compare,
    evolve_closed_form,
    evolve_integrated,
    evolve_spectral,
    initial_state,
    integrate_rk4,
    uniform_grid,
    write_csv,
)
from .errors import (
    ExceptionalPointError,
    ExistenceViolation,
    GridMismatch,
    NotExceptionalError,
    NotPositiveHermitian,
    PhaseUnsupported,
)
from .mequiv import (
    LiouvilleSystem,
    OdeCoefficients,
    is_similar,
    lemma_hypothesis,
    lemma_similarity_residual,
    liouville,
    m_equivalent,
    ode_coefficients_2,
    quartic_coefficients,
)
from .metric import (
    IntertwinerReport,
    MetricPair,
    antilinear_u,
    metric_pair,
    positive_pair,
    similar_hamiltonian,
    similar_hamiltonian_via_u,
    solve_intertwiners,
    verify_intertwining,
)
from .pseudofermion import (
    FermionizedSystem,
    PseudoFermionPair,
    PtReport,
    fermionize,
    hpf_build,
    ladder_check,
    pf_construct,
    pf_identify,
    pt_check,
    pt_probe,
    susy_partner,
)
from .report import build_report
from .spectral import (
    BiorthogonalSystem,
    EpSystem,
    eigensystem,
    ep_system,
    expand,
    modes,
    pairing,
)

__version__ = "0.1.0"

__all__ = [
    "BiorthogonalSystem",
    "CircuitParams",
    "EP_BAND_RTOL",
    "Eig2",
    "EpSystem",
    "ExceptionalPointError",
    "ExistenceViolation",
    "FermionizedSystem",
    "GridMismatch",
    "InitialData",
    "IntertwinerReport",
    "LiouvilleSystem",
    "MetricPair",
    "NotExceptionalError",
    "NotPositiveHermitian",
    "OdeCoefficients",
    "Phase",
    "PhaseUnsupported",
    "PseudoFermionPair",
    "PtReport",
    "Trajectory",
    "antilinear_u",
    "build_report",
    "char_poly_coeffs",
    "classify",
    "compare",
    "eig2",
    "eigensystem",
    "ep_system",
    "evolve_closed_form",
    "evolve_integrated",
    "evolve_spectral",
    "expand",
    "expm",
    "fermionize",
    "gain_hamiltonian",
    "hamiltonian",
    "hermitian_split",
    "hpf_build",
    "initial_state",
    "integrate_rk4",
    "is_similar",
    "ladder_check",
    "lemma_hypothesis",
    "lemma_similarity_residual",
    "liouville",
    "m_equivalent",
    "metric_pair",
    "modes",
    "ode_coefficients_2",
    "operator_norm",
    "pairing",
    "pf_construct",
    "pf_identify",
    "positive_pair",
    "pt_check",
    "pt_probe",
    "quartic_coefficients",
    "similar_hamiltonian",
    "similar_hamiltonian_via_u",
    "solve_intertwiners",
    "sqrt_pos_hermitian",
    "susy_partner",
    "trace_det",
    "uniform_grid",
    "verify_intertwining",
    "write_csv",
]
