"""Shared test utilities: independent oracles, parameter draws and a new interpreter.

The RK4 routine and the finite-difference stencil here are written from
scratch so that kernel results (matrix exponentials, closed-form
trajectories, scalar ODE residuals) are checked against code that shares
nothing with the package implementation.
"""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import nhrlc
from nhrlc import (
    CircuitParams, ExceptionalPointError, classify, eigensystem, expand, expm, initial_state, modes,
)
from nhrlc.mequiv import _coincidence
from nhrlc.pseudofermion import _ladder_basis
from nhrlc.spectral import Modes


# Real inputs of every kind the finite checks see: Python and numpy scalars,
# subnormal, huge, infinite and NaN.
REAL_VALUES = [
    0, 3, -2.5, True, np.float64(0.3), np.float32(-0.25), np.int64(2), 5e-324, 1e308,
    np.inf, -np.inf, np.nan, np.float64(-np.inf), np.float32(np.nan),
]


def rk4_states(gen, state0, times, step):
    """Independent fixed-step RK4 for y' = gen @ y, sampled on ``times``."""
    gen = np.asarray(gen, dtype=complex)
    y = np.asarray(state0, dtype=complex).copy()
    ts = np.asarray(times, dtype=float)
    out = np.empty((ts.size, y.size), dtype=complex)
    out[0] = y
    for k in range(1, ts.size):
        span = ts[k] - ts[k - 1]
        n_sub = max(1, int(np.ceil(span / step - 1e-12)))
        h = span / n_sub
        for _ in range(n_sub):
            k1 = gen @ y
            k2 = gen @ (y + 0.5 * h * k1)
            k3 = gen @ (y + 0.5 * h * k2)
            k4 = gen @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k] = y
    return out


def complex_spectral_states(params, init, times):
    """The spectral route's complex states, in the complex form the route sums.

    Away from the EP, b+ e^{-i lambda+ t} phi+ + b- e^{-i lambda- t} phi-;
    at the EP, the Jordan-split exp(-iHt) Phi(0) applied as the stacked matmul
    ``expm(G, omega0*t) @ (Phi(0) / (1, omega0)) * (1, omega0)``. The route
    returns the real part of either.
    """
    ts = np.asarray(times, dtype=float)
    state0 = initial_state(init, params)
    try:
        system = eigensystem(params)
    except ExceptionalPointError:
        w0 = params.omega0
        gen = [[0.0, 1.0], [-1.0, -2.0 * params.alpha / w0]]
        with np.errstate(over="ignore", invalid="ignore"):
            return expm(gen, w0 * ts) @ (state0 / [1.0, w0]) * [1.0, w0]
    b_plus, b_minus = expand(system, state0)
    with np.errstate(over="ignore", invalid="ignore"):
        phases_p = np.exp(-1j * system.lambda_plus * ts)[:, None]
        phases_m = np.exp(-1j * system.lambda_minus * ts)[:, None]
        return b_plus * phases_p * system.phi_plus + b_minus * phases_m * system.phi_minus


def deriv5(values, dt):
    """Five-point central first derivative; returns the interior [2:-2]."""
    y = np.asarray(values)
    return (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * dt)


def draw_params(rng, phase, bound=3.0):
    """Uniform draw of (alpha, omega0) in (0, bound)^2 conditioned on the phase."""
    while True:
        alpha = float(rng.uniform(0.0, bound))
        omega0 = float(rng.uniform(0.0, bound))
        if omega0 <= 1e-9:
            continue
        params = CircuitParams.from_rates(alpha, omega0)
        if classify(params) is phase:
            return params


def random_invertible(rng, n, min_det=0.1):
    """Random real invertible matrix with determinant bounded away from zero."""
    while True:
        m = rng.uniform(-1.0, 1.0, size=(n, n))
        if abs(np.linalg.det(m)) > min_det:
            return m


PAIR_KINDS = ("random", "similar", "adjoint", "jordan", "scalar", "equal")


def designed_pair(kind, m, n, t, u):
    """A pair of the given kind (one of PAIR_KINDS) built from the random 2x2 matrices m and n."""
    lam, c, eye = m[0, 0], n[0, 1], np.eye(2)
    if kind == "similar":
        p = np.array([[1.0, t], [0.0, 1.0]]) @ np.array([[1.0, 0.0], [u, 1.0]])
        return m, p @ m @ np.linalg.inv(p)
    if kind == "adjoint":
        return m, m.conj().T
    if kind == "jordan":
        return lam * eye + c * np.array([[0.0, 1.0], [0.0, 0.0]]), lam * eye
    if kind == "scalar":
        return lam * eye, lam * eye
    if kind == "equal":
        return m, m.copy()
    return m, n


def balanced_residual(a, b, x):
    """max|A_b Y - Y B_b| / (s max|Y|) for an intertwiner X of (A, B), where
    Y = D_A^-1 X D_B and A_b, B_b are the pair balanced by the coincidence
    rule, s their largest entry modulus."""
    *_, (ab, bb), undo = _coincidence(a, b)
    y = x / np.ldexp(1.0, undo)
    s = max(np.abs(ab).max(), np.abs(bb).max())
    return float(np.abs(ab @ y - y @ bb).max() / (s * np.abs(y).max()))


def ladder_reference(pf, system):
    """ladder_check in numpy: one matrix-vector product and one norm per relation."""
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


def reference_trajectory_csv(traj):
    """Trajectory CSV written row by row through csv.writer and numpy scalars."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
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
    return buf.getvalue()


def reference_modes(alpha, omega0) -> Modes:
    """The closed-form modes over numpy arrays, kept frozen as the numpy arithmetic
    that the scalar :func:`nhrlc.spectral.modes` reproduces bit for bit."""
    # [()] turns 0-d input into numpy scalars, whose arithmetic is cheaper
    alpha = np.asarray(alpha, dtype=float)[()]
    w0 = np.asarray(omega0, dtype=float)[()]
    # a root per quartered factor: (omega0 - alpha)*(omega0 + alpha) overflows
    # past 1e154 and omega0 + alpha past 1.8e308; sqrt(x/4) = sqrt(x)/2 exactly
    w4, a4 = w0 / 4, alpha / 4
    root = 4 * (np.sqrt((w4 - a4).astype(complex)) * np.sqrt((w4 + a4).astype(complex)))
    # sign bit, not alpha < 0: at alpha = -0.0 either labelling gives the same pair
    gain = np.signbit(alpha)
    big = -1j * alpha - np.copysign(1.0, alpha) * root
    small = -w0 * (w0 / big)
    lam_p, lam_m = np.where(gain, (big, small), (small, big)) + 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        n_phi_p = -lam_m / root / 2.0 + 0.0
        n_phi_m = lam_p / root / 2.0 + 0.0
    return Modes(lam_p, lam_m, -lam_m + 0.0, -lam_p + 0.0, n_phi_p, n_phi_m)


def mapped_modes(alpha, omega0) -> Modes:
    """The scalar :func:`nhrlc.spectral.modes` mapped over arrays: a Modes of complex arrays."""
    alpha, omega0 = np.broadcast_arrays(np.asarray(alpha, dtype=float), omega0)
    points = [modes(a, w0) for a, w0 in zip(alpha.ravel().tolist(), omega0.ravel().tolist())]
    return Modes(*(np.array(field, dtype=complex).reshape(alpha.shape) for field in zip(*points)))


def reference_sweep_csv(omega0, alpha_min, alpha_max, steps):
    """Sweep CSV written row by row from np.linspace and :func:`reference_modes`,
    each phase from its own CircuitParams."""
    alphas = np.linspace(alpha_min, alpha_max, steps)
    branches = reference_modes(alphas, omega0)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["alpha", "re_lambda_plus", "im_lambda_plus", "re_lambda_minus", "im_lambda_minus", "phase"]
    )
    for alpha, lam_p, lam_m in zip(alphas, branches.lambda_plus, branches.lambda_minus):
        params = CircuitParams.from_rates(float(alpha), omega0)
        writer.writerow(
            [
                repr(float(alpha)),
                repr(float(lam_p.real)), repr(float(lam_p.imag)),
                repr(float(lam_m.real)), repr(float(lam_m.imag)),
                classify(params).value,
            ]
        )
    return buf.getvalue()


def fresh_python(*args) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter that imports this package; require exit 0."""
    path = [str(Path(nhrlc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc
