"""Exception types shared across the toolkit; the gate bounds by name and their verdict."""

TOLERANCES = {
    "biorthogonality_residual": 1e-12,
    "inverse_residual": 1e-12,
    "mapping_residual": 1e-12,
    "intertwining_residual": 1e-11,
    "anticommutator_residual": 1e-11,
    "nilpotency_residual": 1e-11,
    "hamiltonian_residual": 1e-12,
    "self_orthogonality_residual": 1e-12,
    "closed_vs_spectral": 1e-10,
}


def exceeds(value: float, bound: float) -> bool:
    """The gate verdict: a value fails unless it is at most its bound, so NaN fails."""
    return not value <= bound


class NotPositiveHermitian(ValueError):
    """Operand is not a positive Hermitian matrix (square roots, metrics)."""


class ExceptionalPointError(ValueError):
    """Operation is undefined at an exceptional point (coalescent spectrum)."""


class NotExceptionalError(ValueError):
    """Exceptional-point analysis requested away from the coalescence locus."""


class ExistenceViolation(ExceptionalPointError):
    """The ladder-pair existence condition (a - b) * gamma = 1 fails.

    Subclasses :class:`ExceptionalPointError` because the circuit
    identification violates the condition exactly when the two mode
    directions coalesce (a = b).
    """


class PhaseUnsupported(ValueError):
    """Requested evolution method does not apply in the current phase."""


class GridMismatch(ValueError):
    """Trajectories sampled on different time grids cannot be compared."""
