"""Time evolution of the circuit state by three independent routes.

* closed form: the textbook damped-oscillation solution
  I(t) = e^{-alpha t} (I0 cos(wd t) - V0/(L wd) sin(wd t)), wd^2 = w0^2 - a^2,
  valid in the broken (underdamped) phase;
* spectral: Phi(t) = b+ e^{-i lambda+ t} phi+ + b- e^{-i lambda- t} phi-,
  with the coefficients from the biorthogonal expansion of Phi(0); at the
  exceptional point this degenerates and the route falls back to the exact
  matrix exponential of the Jordan block;
* integrated: fixed-step classical 4th-order Runge-Kutta on i*Phi' = H*Phi,
  deterministic and reproducible, used as the independent cross-check.
  The generator is constant, so RK4 over one grid interval is a fixed 2x2
  matrix: it is computed once per distinct interval length, by stepping the
  identity with the same substep rule, and each sample costs one matvec.

At the exceptional point the spectral route's matrix exponential is taken
for the whole grid in one batched call.

State convention: x1 is the current, x2 its derivative; the initial state is
(I0, -alpha*I0 - V0/L) where V0 is the accumulated capacitor voltage.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParams, Phase, classify, hamiltonian
from .cxmat import expm
from .errors import ExceptionalPointError, GridMismatch, PhaseUnsupported
from .spectral import eigensystem, expand


@dataclass(frozen=True)
class InitialData:
    """Initial current, accumulated capacitor voltage, and inductance."""

    i0: float
    v0: float
    inductance: float

    def __post_init__(self):
        if not (np.isfinite(self.i0) and np.isfinite(self.v0) and np.isfinite(self.inductance)):
            raise ValueError("initial data must be finite")
        if self.inductance <= 0:
            raise ValueError("inductance must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times, complex 2-vector states, and method tag."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), 2)
    method: str


def uniform_grid(t_max: float, dt: float) -> np.ndarray:
    """Inclusive uniform grid from 0 to t_max with step dt."""
    if t_max <= 0 or dt <= 0:
        raise ValueError("t_max and dt must be positive")
    n = int(round(t_max / dt))
    return np.linspace(0.0, n * dt, n + 1)


def initial_state(init: InitialData, params: CircuitParams) -> np.ndarray:
    """Phi(0) = (I0, I'(0)) with I'(0) = -alpha*I0 - V0/L."""
    return np.array(
        [init.i0, -params.alpha * init.i0 - init.v0 / init.inductance], dtype=complex
    )


def evolve_closed_form(params: CircuitParams, init: InitialData, times) -> Trajectory:
    """Sampled underdamped closed form; only defined in the broken phase."""
    if classify(params) is not Phase.BROKEN:
        raise PhaseUnsupported("closed-form evolution covers the broken phase only")
    alpha, w0 = params.alpha, params.omega0
    wd_sq = w0 ** 2 - alpha ** 2
    if wd_sq <= 0:
        raise PhaseUnsupported("closed-form evolution needs omega0^2 > alpha^2")
    wd = np.sqrt(wd_sq)
    ts = np.asarray(times, dtype=float)
    amp_cos = init.i0
    amp_sin = -init.v0 / (init.inductance * wd)
    decay = np.exp(-alpha * ts)
    x1 = decay * (amp_cos * np.cos(wd * ts) + amp_sin * np.sin(wd * ts))
    x2 = decay * (
        (-alpha * amp_cos + wd * amp_sin) * np.cos(wd * ts)
        + (-alpha * amp_sin - wd * amp_cos) * np.sin(wd * ts)
    )
    states = np.column_stack([x1, x2]).astype(complex)
    return Trajectory(times=ts, states=states, method="closed-form")


def evolve_spectral(params: CircuitParams, init: InitialData, times) -> Trajectory:
    """Spectral-expansion evolution; exact matrix exponential at the EP.

    Away from the EP band, Phi(t) = sum_a b_a e^{-i lambda_a t} phi_a. At
    the EP the expansion does not exist; the trajectory is then produced by
    the Jordan-split matrix exponential and tagged "expm".
    """
    ts = np.asarray(times, dtype=float)
    state0 = initial_state(init, params)
    try:
        system = eigensystem(params)
    except ExceptionalPointError:
        states = expm(-1j * hamiltonian(params), ts) @ state0
        return Trajectory(times=ts, states=states, method="expm")
    b_plus, b_minus = expand(system, state0)
    phases_p = np.exp(-1j * system.lambda_plus * ts)[:, None]
    phases_m = np.exp(-1j * system.lambda_minus * ts)[:, None]
    states = b_plus * phases_p * system.phi_plus + b_minus * phases_m * system.phi_minus
    return Trajectory(times=ts, states=states, method="spectral")


def integrate_rk4(h, state0, times, step: float) -> np.ndarray:
    """Fixed-step RK4 states of i*Phi' = H*Phi on the given grid.

    Each grid interval is covered by equal substeps no longer than ``step``;
    the grid must be increasing and start at the time of ``state0``. The
    state may be a 2-vector or a 2xk matrix (k states stepped together).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    gen = -1j * np.asarray(h, dtype=complex)
    ts = np.asarray(times, dtype=float)
    if ts.size and np.any(np.diff(ts) <= 0):
        raise ValueError("time grid must be strictly increasing")
    state = np.asarray(state0, dtype=complex).copy()
    out = np.empty((ts.size,) + state.shape, dtype=complex)
    if ts.size:
        out[0] = state
    for k in range(1, ts.size):
        span = ts[k] - ts[k - 1]
        substeps = max(1, int(np.ceil(span / step - 1e-12)))
        h_sub = span / substeps
        for _ in range(substeps):
            k1 = gen @ state
            k2 = gen @ (state + 0.5 * h_sub * k1)
            k3 = gen @ (state + 0.5 * h_sub * k2)
            k4 = gen @ (state + h_sub * k3)
            state = state + (h_sub / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k] = state
    return out


def evolve_integrated(
    params: CircuitParams, init: InitialData, times, step: float = 1e-3
) -> Trajectory:
    """RK4 evolution of the circuit state; global error O(step^4).

    Same substeps as :func:`integrate_rk4` on the grid (prefixed by t = 0
    when it starts later), applied as one propagator per interval length.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    ts = np.asarray(times, dtype=float)
    full = np.concatenate([[0.0], ts]) if ts.size and abs(ts[0]) > 0 else ts
    h = hamiltonian(params)
    props: dict[float, np.ndarray] = {}  # interval length -> RK4 propagator
    state = initial_state(init, params)
    out = np.empty((full.size, 2), dtype=complex)
    if full.size:
        out[0] = state
    # past RK4's stability limit the states overflow; the gates fail the inf/NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for k, span in enumerate(np.diff(full), start=1):
            if span not in props:  # integrate_rk4 rejects a non-positive length
                props[span] = integrate_rk4(h, np.eye(2), [0.0, span], step)[1]
            state = props[span] @ state
            out[k] = state
    states = out[full.size - ts.size:]
    return Trajectory(times=ts, states=states, method="integrated")


def compare(traj_a: Trajectory, traj_b: Trajectory) -> tuple[float, float]:
    """(max state distance over the grid, time where it occurs); a non-finite
    max (NaN if any distance is NaN) is placed at the first non-finite one."""
    if traj_a.times.shape != traj_b.times.shape or not np.array_equal(
        traj_a.times, traj_b.times
    ):
        raise GridMismatch("trajectories are sampled on different time grids")
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.linalg.norm(traj_a.states - traj_b.states, axis=1)
    err = float(np.max(dist))  # NaN if any distance is NaN
    idx = int(np.argmax(dist)) if np.isfinite(err) else int(np.argmin(np.isfinite(dist)))
    return err, float(traj_a.times[idx])


def write_csv(traj: Trajectory, fh) -> None:
    """Write the trajectory as CSV with a header row."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["t", "re_x1", "im_x1", "re_x2", "im_x2", "method"])
    for t, state in zip(traj.times, traj.states):
        writer.writerow(
            [
                repr(float(t)),
                repr(float(state[0].real)),
                repr(float(state[0].imag)),
                repr(float(state[1].real)),
                repr(float(state[1].imag)),
                traj.method,
            ]
        )
