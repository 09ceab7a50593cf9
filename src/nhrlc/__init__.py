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

Each public name is imported from its home module on first use (PEP 562), so
``import nhrlc`` loads no submodule and a caller pays only for the layers it
reaches.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "circuit": ("CircuitParams", "EP_BAND_RTOL", "Phase", "classify", "gain_hamiltonian",
                "hamiltonian", "hermitian_split", "phase_of"),
    "cxmat": ("Eig2", "char_poly_coeffs", "eig2", "expm", "operator_norm",
              "sqrt_pos_hermitian", "trace_det"),
    "dynamics": ("InitialData", "Trajectory", "compare", "evolve_closed_form",
                 "evolve_integrated", "evolve_spectral", "initial_state", "integrate_rk4",
                 "uniform_grid", "write_csv"),
    "errors": ("ExceptionalPointError", "ExistenceViolation", "GridMismatch",
               "NotExceptionalError", "NotPositiveHermitian", "PhaseUnsupported"),
    "mequiv": ("LiouvilleSystem", "OdeCoefficients", "is_similar", "lemma_hypothesis",
               "lemma_similarity_residual", "liouville", "m_equivalent", "ode_coefficients_2",
               "quartic_coefficients"),
    "metric": ("IntertwinerReport", "MetricPair", "antilinear_u", "metric_pair",
               "positive_pair", "similar_hamiltonian", "similar_hamiltonian_via_u",
               "solve_intertwiners", "verify_intertwining"),
    "pseudofermion": ("FermionizedSystem", "PseudoFermionPair", "PtReport", "fermionize",
                      "hpf_build", "ladder_check", "pf_construct", "pf_identify", "pt_check",
                      "pt_probe", "susy_partner"),
    "report": ("build_report",),
    "spectral": ("BiorthogonalSystem", "EpSystem", "eigensystem", "ep_system", "expand",
                 "modes", "pairing"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name's home module and keep the object, so it resolves once."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
