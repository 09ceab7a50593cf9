"""Time evolution of the circuit state by three independent routes.

* closed form: the textbook damped-oscillation solution
  I(t) = e^{-alpha t} (I0 cos(wd t) - V0/(L wd) sin(wd t)), wd^2 = w0^2 - a^2,
  valid in the broken (underdamped) phase |alpha| < omega0, loss or gain;
* spectral: Phi(t) = b+ e^{-i lambda+ t} phi+ + b- e^{-i lambda- t} phi-,
  with the coefficients from the biorthogonal expansion of Phi(0); at the
  exceptional point this degenerates and the route falls back to the exact
  matrix exponential of the Jordan block;
* integrated: fixed-step classical 4th-order Runge-Kutta on i*Phi' = H*Phi,
  deterministic and reproducible, used as the independent cross-check.
  The generator is constant, so RK4 over one grid interval is a fixed real
  2x2 propagator M, kept as D = M - I so that the rounding of its diagonal
  near 1 does not add up, and as M itself once it has decayed to max|M| < 1/2,
  where D = M - I would keep M only to eps absolute; each distinct interval
  length gets its propagator from one one-substep integrate_rk4 call, raised
  to the m-th power. The states of a uniform grid from 0 double: Phi_{s+j} =
  Phi_j + (M^s - I) Phi_j, or M^s Phi_j, for j < s, in ceil(log2(n + 1))
  passes; other grids step Phi_{k+1} = Phi_k + D_k Phi_k, or M_k Phi_k.
  Two one-entry caches prove the report's grid once: uniform_grid keeps its last
  linspace by (n*dt, n), evolve_integrated the (shape, bytes) of its last uniform grid.

At the exceptional point the spectral route's matrix exponential is taken
for the whole grid in one batched call.

cross_check runs the routes on one grid for both ``analyze`` and ``evolve``, and
route_agreement bounds each pair: closed vs spectral by the registry entry
closed_vs_spectral, pairs with RK by rk_tolerance at the dimensionless step r*h.

The generator -iH and Phi(0) are real, so every route returns real float64
(n, 2) states; spectral and expm drop their complex sums' imaginary residue.

State convention: x1 is the current, x2 its derivative; the initial state is
(I0, -alpha*I0 - V0/L) where V0 is the accumulated capacitor voltage.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import CSV_BLOCK, CircuitParams, Phase, classify, finite_real, hamiltonian, write_rows
from .cxmat import expm
from .errors import TOLERANCES, ExceptionalPointError, GridMismatch, PhaseUnsupported
from .spectral import eigensystem, expand


@dataclass(frozen=True)
class InitialData:
    """Initial current, accumulated capacitor voltage, and inductance."""

    i0: float
    v0: float
    inductance: float

    def __post_init__(self):
        if not finite_real(self.i0, self.v0, self.inductance):
            raise ValueError("initial data must be finite")
        if self.inductance <= 0:
            raise ValueError("inductance must be positive")


class Trajectory(NamedTuple):
    """Sampled evolution: times, real 2-vector states (x1, x2), and method tag."""

    times: np.ndarray
    states: np.ndarray  # float64, shape (len(times), 2)
    method: str


_grid: tuple = (None, None)  # ((n*dt, n), np.linspace) of the last uniform_grid call
_uniform: tuple | None = None  # (shape, bytes) of the last grid evolve_integrated proved uniform


def uniform_grid(t_max: float, dt: float) -> np.ndarray:
    """Inclusive uniform grid from 0 to t_max with step dt, checked on every call; a repeat
    call with the last (n*dt, n), all np.linspace sees, copies the memo into a fresh array."""
    global _grid
    if not finite_real(t_max, dt):
        raise ValueError("t_max and dt must be finite")
    if t_max <= 0 or dt <= 0:
        raise ValueError("t_max and dt must be positive")
    ratio = t_max / dt
    if not math.isfinite(ratio):
        raise ValueError("t_max / dt must be finite")
    n = int(round(ratio))
    key, last = (n * dt, n), _grid
    if key != last[0]:
        last = _grid = (key, np.linspace(0.0, n * dt, n + 1))
    return last[1].copy()


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
    wd = math.sqrt(w0 - alpha) * math.sqrt(w0 + alpha)  # w0**2 underflows below 1.5e-154
    ts = np.asarray(times, dtype=float)
    amp_cos = init.i0
    amp_sin = -init.v0 / (init.inductance * wd)
    states = np.empty((ts.size, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # a gain overflow fails the gates
        decay = np.exp(-alpha * ts)
        cos, sin = np.cos(wd * ts), np.sin(wd * ts)
        states[:, 0] = decay * (amp_cos * cos + amp_sin * sin)
        states[:, 1] = decay * (
            (-alpha * amp_cos + wd * amp_sin) * cos + (-alpha * amp_sin - wd * amp_cos) * sin
        )
    return Trajectory(times=ts, states=states, method="closed-form")


def evolve_spectral(params: CircuitParams, init: InitialData, times) -> Trajectory:
    """Spectral-expansion evolution; exact matrix exponential at the EP.

    Away from the EP band, Phi(t) = sum_a b_a e^{-i lambda_a t} phi_a. At
    the EP the expansion does not exist; the trajectory is then the
    Jordan-split matrix exponential exp(-iHt) = D exp(omega0*t*G) D^-1, with
    D = diag(1, omega0) and G = [[0, 1], [-1, -2*alpha/omega0]], tagged "expm".
    """
    ts = np.asarray(times, dtype=float)
    state0 = initial_state(init, params)
    try:
        system = eigensystem(params)
    except ExceptionalPointError:
        # G's entries are of order 1; H's omega0^2 overflows eig2's discriminant
        w0 = params.omega0
        gen = [[0.0, 1.0], [-1.0, -2.0 * params.alpha / w0]]
        with np.errstate(over="ignore", invalid="ignore"):  # a gain overflow fails the gates
            prop, (u0, u1) = expm(gen, w0 * ts), state0 / [1.0, w0]
            states = (prop[:, :, 0] * u0 + prop[:, :, 1] * u1) * [1.0, w0]
        return Trajectory(times=ts, states=states.real.copy(), method="expm")
    b_plus, b_minus = expand(system, state0)
    with np.errstate(over="ignore", invalid="ignore"):  # a gain overflow fails the gates
        phases_p = np.exp(-1j * system.lambda_plus * ts)[:, None]
        phases_m = np.exp(-1j * system.lambda_minus * ts)[:, None]
        states = b_plus * phases_p * system.phi_plus + b_minus * phases_m * system.phi_minus
    return Trajectory(times=ts, states=states.real.copy(), method="spectral")


def _substeps(span: float, step: float) -> int:
    """ceil(span/step), less a 1e-12 allowance for rounding, and at least 1."""
    ratio = span / step
    if not math.isfinite(ratio):
        raise ValueError("rk route: RK4 substep count overflows (interval / step must be finite)")
    return max(1, math.ceil(ratio - 1e-12))


def integrate_rk4(h, state0, times, step: float) -> np.ndarray:
    """Fixed-step RK4 states of i*Phi' = H*Phi on the given grid.

    Each grid interval is covered by equal substeps no longer than ``step``;
    the grid must be increasing and start at the time of ``state0``. The
    state may be a 2-vector or a 2xk matrix (k states stepped together), and
    ``h`` a stack of generators, shape (g, 2, 2), with a matching (g, 2, k)
    state; a 4x4 generator, such as an augmented one, steps 4-vectors alike.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    gen = -1j * np.asarray(h, dtype=complex)
    ts = np.asarray(times, dtype=float)
    spans = np.diff(ts)
    if np.any(spans <= 0):
        raise ValueError("time grid must be strictly increasing")
    state = np.asarray(state0, dtype=complex).copy()
    out = np.empty((ts.size,) + state.shape, dtype=complex)
    if ts.size:
        out[0] = state
    for k, span in enumerate(spans.tolist(), 1):
        substeps = _substeps(span, step)
        h_sub = span / substeps
        for _ in range(substeps):
            k1 = gen @ state
            k2 = gen @ (state + 0.5 * h_sub * k1)
            k3 = gen @ (state + 0.5 * h_sub * k2)
            k4 = gen @ (state + h_sub * k3)
            state = state + (h_sub / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k] = state
    return out


def _compose(p, q) -> tuple:
    """(I + p)(I + q) - I = p + q + p q for row-major 2x2 4-sequences of floats."""
    (p0, p1, p2, p3), (q0, q1, q2, q3) = p, q
    return (p0 + q0 + (p0 * q0 + p1 * q2), p1 + q1 + (p0 * q1 + p1 * q3),
            p2 + q2 + (p2 * q0 + p3 * q2), p3 + q3 + (p2 * q1 + p3 * q3))


def _plus_eye(d) -> tuple:
    """M = I + D for a row-major 2x2 4-sequence D."""
    return d[0] + 1.0, d[1], d[2], d[3] + 1.0


def _settle(d) -> tuple:
    """The propagator M = I + D as (D, False) while max|M| >= 1/2, else as (M, True)."""
    m = _plus_eye(d)
    return (m, True) if max(map(abs, m)) < 0.5 else (d, False)


def _times(p, q) -> tuple:
    """The product of two propagators (D or M, is_m): by :func:`_compose` in D form while
    both are in D form and it settles there, else as M products, M_2s = M_s M_s."""
    (a, a_is_m), (b, b_is_m) = p, q
    if not (a_is_m or b_is_m):
        return _settle(_compose(a, b))
    (a0, a1, a2, a3) = a if a_is_m else _plus_eye(a)
    (b0, b1, b2, b3) = b if b_is_m else _plus_eye(b)
    return (a0 * b0 + a1 * b2, a0 * b1 + a1 * b3, a2 * b0 + a3 * b2, a2 * b1 + a3 * b3), True


def _interval_propagator(h, length: float, step: float) -> tuple:
    """RK4's M over one interval in m = ceil(length/step) substeps, as (D = M - I, False)
    or, once decayed, (M, True), each a row-major 4-tuple: one integrate_rk4 call over one
    substep on the generator augmented to [[H, H], [0, 0]], which takes (0, I) to (D, I),
    so D is never rounded at 1; then its m-th power by repeated squaring with :func:`_times`."""
    m = _substeps(length, step)
    substep = length / m
    aug = np.zeros((4, 4), dtype=complex)
    aug[:2, :2] = aug[:2, 2:] = h
    basis = np.eye(4, 2, -2)
    p = _settle(integrate_rk4(aug, basis, [0.0, substep], substep)[1][:2].real.ravel().tolist())
    out = ((0.0,) * 4, False)
    while True:
        if m & 1:
            out = _times(out, p)
        m >>= 1
        if not m:
            return out
        p = _times(p, p)


# The RK route's step r*h, in units of the circuit's fastest time 1/r, r = max|lambda|.
RK_STEP = 1e-3


def rk_tolerance(step: float) -> float:
    """Documented agreement bound for the RK4 route at the dimensionless step r*h."""
    return max(1e-9, 1e-6 * (step / RK_STEP) ** 4)


def evolve_integrated(
    params: CircuitParams, init: InitialData, times, step: float = 1e-3
) -> Trajectory:
    """RK4 evolution of the circuit state; global error O(step^4), ``step`` in seconds.

    Same substeps as :func:`integrate_rk4` on the grid (prefixed by t = 0
    when it starts later), one D = M - I per distinct length, stepped as
    x[k + 1] = x[k] + D_k x[k]; but a grid bitwise np.linspace(0, t_end,
    n + 1), as from :func:`uniform_grid`, takes one length t_end/n and its
    states double as x[s + j] = x[j] + D_s x[j], j < s, where D_s = M^s - I
    and D_2s = 2 D_s + D_s D_s. From the first power with max|M_s| < 1/2 on
    (a decayed loss state, which D_s holds only to eps absolute), M_s itself is
    kept, M_2s = M_s M_s and x[s + j] = M_s x[j]; the stepwise rule likewise.
    Over 10^4 intervals the states stay within
    1.0e-14 relative of the stepwise loop at the gain point (-0.3, 1) and
    1.2e-13 at (-0.8, 1.8), far below the O(step^4) error the gates allow.
    A grid with the shape and bytes of the last one found uniform from 0 skips
    the grid checks and the linspace test; a refused or late-start grid is not kept.
    """
    global _uniform
    if not step > 0:
        raise ValueError("step must be positive")
    ts = np.asarray(times, dtype=float)
    key = (ts.shape, ts.tobytes())
    full, uniform = ts, key == _uniform  # a hit passed the checks below as linspace from 0
    if not uniform:
        if not np.all(np.isfinite(ts)):
            raise ValueError("time grid must be finite")
        full = np.concatenate([[0.0], ts]) if ts.size and abs(ts[0]) > 0 else ts
        spans = np.diff(full)
        if not np.all((spans > 0) & np.isfinite(spans)):
            raise ValueError("time grid must be strictly increasing")
        uniform = spans.size > 1 and np.array_equal(full, np.linspace(0.0, full[-1], full.size))
        _uniform = key if uniform and full is ts else _uniform  # never a refused or late grid
    n = full.size - 1
    h = hamiltonian(params)
    x = np.empty((2, full.size))  # -iH and Phi(0) are real: so are the states
    x[:, :1] = initial_state(init, params).real[:, None]
    # a huge generator overflows its propagators; the gates fail the inf/NaN
    with np.errstate(over="ignore", invalid="ignore"):
        if uniform:
            ds = [_interval_propagator(h, full[-1] / n, step)]  # linspace rounding aside, one M
            for _ in range(n.bit_length() - 1):
                ds.append(_times(ds[-1], ds[-1]))
            mats = np.array([d for d, _ in ds]).reshape(-1, 2, 2)  # M^s - I or M^s, s = 2^p <= n
            for p, (d, (_, is_m)) in enumerate(zip(mats, ds)):
                s = 1 << p
                w = min(s, n + 1 - s)
                if is_m:
                    x[:, s:s + w] = d.dot(x[:, :w])
                else:
                    np.add(x[:, :w], d.dot(x[:, :w]), out=x[:, s:s + w])
        else:
            props: dict[float, tuple] = {}  # D = M - I, or M, per distinct length
            for k, length in enumerate(spans.tolist()):
                if length not in props:
                    d, is_m = _interval_propagator(h, length, step)
                    props[length] = np.reshape(d, (2, 2)), is_m
                d, is_m = props[length]
                x[:, k + 1] = d.dot(x[:, k]) if is_m else x[:, k] + d.dot(x[:, k])
    states = x.T[full.size - ts.size:].copy()
    return Trajectory(times=ts, states=states, method="integrated")


def compare(traj_a: Trajectory, traj_b: Trajectory) -> tuple[float, float]:
    """(max state distance over the grid, time where it occurs); a non-finite
    max (NaN if any distance is NaN) is placed at the first non-finite one."""
    if traj_a.times.shape != traj_b.times.shape or not (traj_a.times == traj_b.times).all():
        raise GridMismatch("trajectories are sampled on different time grids")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = traj_a.states - traj_b.states  # hypot: even in each argument, no squares to overflow
        dist = np.hypot(*(np.abs(diff) if np.iscomplexobj(diff) else diff).T)
    err = float(dist.max())  # NaN if any distance is NaN
    idx = int(dist.argmax()) if math.isfinite(err) else int(np.argmin(np.isfinite(dist)))
    return err, float(traj_a.times[idx])


def route_agreement(trajectories: dict, rk_step: float) -> list:
    """(a, b, max error, its time, bound) for each pair of named routes on one
    grid, in order; pairs with "rk" are bounded by rk_tolerance(rk_step). Each bound
    is scaled by max(1, largest |state entry| of the exact route a) unless that is
    not finite, so a growing state has a relative bound; "rk" is last, never a."""
    scale = {}  # each route that can be a, that is all but the last: its size, once
    for name in list(trajectories)[:-1]:
        states = trajectories[name].states  # max |entry|, with no |states| temporary if real
        states = np.abs(states) if np.iscomplexobj(states) else states
        size = float(max(states.max(initial=1.0), -states.min(initial=-1.0)))
        scale[name] = size if np.isfinite(size) else 1.0
    out = []
    for name_a, name_b in itertools.combinations(trajectories, 2):
        err, at = compare(trajectories[name_a], trajectories[name_b])
        rk_pair = "rk" in (name_a, name_b)
        bound = rk_tolerance(rk_step) if rk_pair else TOLERANCES["closed_vs_spectral"]
        out.append((name_a, name_b, err, at, bound * scale[name_a]))
    return out


def cross_check(params: CircuitParams, init, grid, rk_step: float = RK_STEP, method="all"):
    """(trajectories by route name, their route_agreement pairs) on a grid from 0. "all"
    runs "closed" in the broken phase only, the spectral route by its method tag, then
    "rk"; another ``method`` runs that route alone. RK steps h = min(rk_step/r, spacing)
    seconds, r = max|lambda| the fastest rate, and its pairs are bounded at r*h."""
    phase, rate = classify(params), params.omega0
    if phase is Phase.UNBROKEN:  # overdamped: |alpha| + sqrt(alpha^2 - omega0^2)
        a = abs(params.alpha)
        rate = a + math.sqrt(a - rate) * math.sqrt(a + rate)
    step = min([rk_step / rate, *grid[1:2]])  # grid[1] is the spacing; keeps a NaN rk_step
    routes = {}
    if method == "closed" or (method == "all" and phase is Phase.BROKEN):
        routes["closed"] = evolve_closed_form(params, init, grid)
    if method in ("all", "spectral"):
        spectral = evolve_spectral(params, init, grid)
        routes[spectral.method] = spectral
    if method in ("all", "rk"):
        routes["rk"] = evolve_integrated(params, init, grid, step=step)
    return routes, route_agreement(routes, rate * step)


def write_csv(traj: Trajectory, fh) -> None:
    """CSV by :func:`write_rows`, tagged by its method; one ``tolist`` per CSV_BLOCK-row slice."""
    times = np.asarray(traj.times, dtype=float)
    x1, x2 = np.asarray(traj.states).T  # .imag of real states is 0.0
    columns = (times, x1.real, x1.imag, x2.real, x2.imag)
    blocks = (np.array([c[lo:lo + CSV_BLOCK] for c in columns]).tolist()
              for lo in range(0, times.size, CSV_BLOCK))
    rows = itertools.chain.from_iterable(zip(*b, itertools.repeat(traj.method)) for b in blocks)
    write_rows(fh, "t,re_x1,im_x1,re_x2,im_x2,method", rows)
