"""Series RLC circuit as a non-Hermitian two-level generator.

The current of a source-free series RLC circuit obeys

    I'' + 2*alpha*I' + omega0^2 * I = 0,   alpha = R/(2L),  omega0 = 1/sqrt(LC),

which in first-order form i*Phi' = H*Phi (with x2 = x1' and x1 = I) is
generated by the manifestly non-Hermitian

    H = i * [[0, 1], [-omega0^2, -2*alpha]].

The adjoint H^dagger generates the same equation with alpha -> -alpha, i.e.
the gain circuit obtained by flipping the sign of the resistor. By |alpha|
vs omega0 the spectrum of H is purely imaginary (unbroken phase, overdamped),
complex (broken phase, underdamped) or coalescent (exceptional point,
critically damped), on the loss (alpha > 0) and the gain (alpha < 0) side.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from dataclasses import dataclass
from numbers import Complex, Real

# Exceptional-point detection band, relative to omega0. Exact equality of
# two derived floats is measure zero; everything inside the band is treated
# as critically damped.
EP_BAND_RTOL = 1e-12

MAX_OMEGA0 = math.sqrt(sys.float_info.max)  # omega0^2 is in H: keep it finite
MAX_ALPHA = sys.float_info.max / 2  # so is 2*alpha

# Rows per block of write_rows: bounds its working memory on long grids.
CSV_BLOCK = 1024


def finite_real(*values) -> bool:
    """math.isfinite of every value; a complex one, numpy's too, is a TypeError (numpy
    registers its scalar types with ``numbers``; float and int skip those slower checks)."""
    for v in values:
        if not isinstance(v, (float, int)) and isinstance(v, Complex) and not isinstance(v, Real):
            raise TypeError("expected real numbers, got a complex one")
    return all(map(math.isfinite, values))


class Phase(enum.Enum):
    """Dynamical phase of the circuit generator."""

    UNBROKEN = "UP"
    BROKEN = "BP"
    EXCEPTIONAL = "EP"


@dataclass(frozen=True)
class CircuitParams:
    """Physical circuit parameters reduced to the damping/frequency pair.

    ``alpha`` is the damping rate R/(2L) (may be negative for a gain
    element) and ``omega0`` the natural frequency 1/sqrt(LC) (> 0). The raw
    component values are retained when the instance is built via
    :meth:`from_rlc`.
    """

    alpha: float
    omega0: float
    resistance: float | None = None
    inductance: float | None = None
    capacitance: float | None = None

    def __post_init__(self):
        if not finite_real(self.alpha, self.omega0):
            raise ValueError("alpha and omega0 must be finite")
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if float(self.omega0) > MAX_OMEGA0:  # against a float32 the bound overflows
            raise ValueError(f"omega0 must be at most {MAX_OMEGA0:.4g}, where omega0^2 overflows")
        if abs(float(self.alpha)) > MAX_ALPHA:
            raise ValueError(f"|alpha| must be at most {MAX_ALPHA:.4g}, where 2*alpha overflows")

    @classmethod
    def from_rlc(cls, resistance: float, inductance: float, capacitance: float) -> "CircuitParams":
        if inductance <= 0:
            raise ValueError("inductance must be positive")
        if capacitance <= 0:
            raise ValueError("capacitance must be positive")
        alpha = resistance / (2.0 * inductance)
        # a root per factor: L*C overflows past 1.8e308 and loses digits below 2.2e-308
        omega0 = 1.0 / (math.sqrt(inductance) * math.sqrt(capacitance))
        return cls(
            alpha=float(alpha),
            omega0=float(omega0),
            resistance=float(resistance),
            inductance=float(inductance),
            capacitance=float(capacitance),
        )

    @classmethod
    def from_rates(cls, alpha: float, omega0: float) -> "CircuitParams":
        return cls(alpha=float(alpha), omega0=float(omega0))


def hamiltonian(params: CircuitParams) -> np.ndarray:
    """Generator H = i*[[0, 1], [-omega0^2, -2*alpha]] of i*Phi' = H*Phi."""
    import numpy as np

    w0 = params.omega0  # w0 * w0 is rounded correctly, and so scales exactly; w0 ** 2 is not
    return 1j * np.array([[0.0, 1.0], [-w0 * w0, -2.0 * params.alpha]], dtype=complex)


def gain_hamiltonian(params: CircuitParams) -> np.ndarray:
    """Adjoint generator; its first component obeys y'' - 2*alpha*y' + omega0^2*y = 0."""
    return hamiltonian(params).conj().T


def hermitian_split(h) -> tuple[np.ndarray, np.ndarray]:
    """Split H into (H + H^dag)/2 and (H - H^dag)/2.

    The first part is Hermitian (a lossless LC generator), the second
    anti-Hermitian and carries all of the resistive loss/gain. Computed from
    the defining combinations, so the symmetry properties hold to rounding.
    """
    import nhrlc.cxmat as cxmat

    a = cxmat.as_cmat(h, 2)
    herm = (a + a.conj().T) / 2.0
    # equal to (a - a^dag)/2, but written so herm + anti == a exactly
    anti = a - herm
    return herm, anti


def phase_of(alpha: float, omega0: float) -> Phase:
    """Phase of the rates, loss or gain: UP (|alpha| > omega0), BP (|alpha| < omega0), EP band."""
    if abs(abs(alpha) - omega0) <= EP_BAND_RTOL * omega0:
        return Phase.EXCEPTIONAL
    if abs(alpha) > omega0:
        return Phase.UNBROKEN
    return Phase.BROKEN


def classify(params: CircuitParams) -> Phase:
    """Phase of the circuit, by :func:`phase_of` on its rates."""
    return phase_of(params.alpha, params.omega0)


def write_rows(fh, header: str, rows) -> None:
    """Write a CSV header line, then rows of five Python floats and a tag, CSV_BLOCK rows
    to a write. Values are float ``repr``s and tags plain words: no field needs quoting."""
    fh.write(f"{header}\n")
    rows = iter(rows)
    while block := list(itertools.islice(rows, CSV_BLOCK)):
        fh.write("".join(f"{a!r},{b!r},{c!r},{d!r},{e!r},{tag}\n" for a, b, c, d, e, tag in block))
