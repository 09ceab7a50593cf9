"""Independent checks of the program's outputs, written with numpy alone.

Nothing here imports the package. Each check takes plain numbers (parsed
output, or fields copied out of the program's objects) and returns ``None``
when the output is right or a short description of the first disagreement.

The reference values are numpy's: eigenvalues from ``np.linalg.eigvals``,
trajectories from the exponential ``V exp(Lambda t) V^-1`` built with
``np.linalg.eig``, traces and determinants from ``np.trace`` and
``np.linalg.det``.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Relative tolerance on eigenvalues, traces and determinants. numpy's
# eigenvalues of a defective 2x2 are off by about sqrt(eps) = 1.5e-8 relative,
# so the bound sits above that and below the 1e-6 perturbation that must show.
RTOL = 1e-7

# Relative tolerance on exact trajectories (closed form, spectral, expm).
TRAJ_RTOL = 1e-7


def generator(alpha: float, omega0: float) -> np.ndarray:
    """H = i*[[0, 1], [-omega0^2, -2*alpha]], built here from the rates."""
    return 1j * np.array([[0.0, 1.0], [-omega0 * omega0, -2.0 * alpha]])


def all_finite(obj) -> bool:
    """Every number inside ``obj`` (nested dicts, lists, arrays) is finite."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(all_finite(v) for v in obj)
    return bool(np.all(np.isfinite(np.asarray(obj, dtype=complex))))


def _pair_error(got, want) -> float:
    """Distance between two unordered eigenvalue pairs."""
    g0, g1 = complex(got[0]), complex(got[1])
    w0, w1 = complex(want[0]), complex(want[1])
    return min(max(abs(g0 - w0), abs(g1 - w1)), max(abs(g0 - w1), abs(g1 - w0)))


def check_pair(name: str, got, matrix, split: float = 0.0) -> str | None:
    """An unordered eigenvalue pair against numpy's, relative to the spectral scale.

    ``split`` widens the bound by a known absolute distance between the true
    eigenvalues and ``got``.
    """
    want = np.linalg.eigvals(matrix)
    scale = max(abs(want[0]), abs(want[1]), np.abs(matrix).max() ** 0.5, 1e-300)
    err = (_pair_error(got, want) - split) / scale
    if not err <= RTOL:
        return f"{name}: relative error {err:.3e} against numpy eigvals"
    return None


def check_isospectral(name: str, got, matrix) -> str | None:
    """Same trace and determinant as ``matrix``, so the same spectrum."""
    m = np.asarray(got, dtype=complex)
    tr_want, det_want = np.trace(matrix), np.linalg.det(matrix)
    scale = max(abs(tr_want), abs(det_want) ** 0.5, 1e-300)
    err_tr = abs(np.trace(m) - tr_want) / scale
    err_det = abs(np.linalg.det(m) - det_want) / scale ** 2
    if not max(err_tr, err_det) <= RTOL:
        return f"{name}: trace/det relative error {max(err_tr, err_det):.3e}"
    return None


def _c(z: dict) -> complex:
    return complex(z["re"], z["im"])


def _m(rows) -> np.ndarray:
    return np.array([[_c(v) for v in row] for row in rows])


def ep_split(alpha: float, omega0: float) -> float:
    """|lambda - (-i*alpha)| for the true eigenvalues, which the EP band rounds to -i*alpha."""
    return math.sqrt(abs(omega0 * omega0 - alpha * alpha))


def check_report(alpha: float, omega0: float, report: dict) -> str | None:
    """The analysis report of one point, against numpy."""
    h = generator(alpha, omega0)
    hd = h.conj().T
    spec = report["spectral"]
    if "lambda_ep" in spec:
        lam = _c(spec["lambda_ep"])
        if (bad := check_pair("lambda_ep", (lam, lam), h, ep_split(alpha, omega0))) is not None:
            return bad
    else:
        for bad in (
            check_pair("lambda", (_c(spec["lambda_plus"]), _c(spec["lambda_minus"])), h),
            check_pair("mu", (_c(spec["mu_plus"]), _c(spec["mu_minus"])), hd),
        ):
            if bad is not None:
                return bad
    if report.get("metric"):
        bad = check_isospectral("similar_hamiltonian", _m(report["metric"]["similar_hamiltonian"]), h)
        if bad is not None:
            return bad
    pf = report.get("pseudofermion") or {}
    if "rho" in pf:
        rho, omega = _c(pf["rho"]), _c(pf["omega"])
        if (bad := check_pair("ladder spectrum", (rho, rho + omega), h)) is not None:
            return bad
    eq = report["equivalence"]
    scale = max(abs(np.trace(h)), omega0 * omega0)
    if (abs(_c(eq["trace"]) - np.trace(h)) > RTOL * scale
            or abs(_c(eq["det"]) - np.linalg.det(h)) > RTOL * scale):
        return "equivalence: trace/det disagree with numpy"
    return None


def trajectory(alpha, omega0, i0, v0, inductance, times) -> np.ndarray:
    """Exact states (I, I') on ``times`` from numpy's eigendecomposition."""
    gen = -1j * generator(alpha, omega0)
    values, vectors = np.linalg.eig(gen)
    x0 = np.array([i0, -alpha * i0 - v0 / inductance], dtype=complex)
    coeff = np.linalg.solve(vectors, x0)
    return (np.exp(np.outer(times, values)) * coeff) @ vectors.T


def rk4_rtol(alpha: float, omega0: float, t_max: float, step: float) -> float:
    """Bound on the relative global error of classical RK4 at this step.

    Per step the error is about |z|^5/120 with z = lambda*step; over
    t_max/step steps, with a factor 10 of headroom.
    """
    rate = max(abs(alpha) + math.sqrt(abs(alpha * alpha - omega0 * omega0)), omega0)
    z = rate * step
    return max(TRAJ_RTOL, 10.0 * (t_max / step) * z ** 5 / 120.0)


def parse_trajectories(text: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Blocks of ``evolve`` CSV output, keyed by method: (times, states)."""
    rows: dict[str, list] = {}
    for row in csv.reader(io.StringIO(text)):
        if row and row[0] != "t":
            rows.setdefault(row[5], []).append(row[:5])
    out = {}
    for method, block in rows.items():
        a = np.array(block, dtype=float)
        out[method] = (a[:, 0], np.column_stack([a[:, 1] + 1j * a[:, 2], a[:, 3] + 1j * a[:, 4]]))
    return out


def check_evolve(op: dict, text: str) -> str | None:
    """Every route of an ``evolve --method all`` run against the exact trajectory."""
    alpha, omega0 = op["point"]["alpha"], op["point"]["omega0"]
    blocks = parse_trajectories(text)
    want_methods = {"spectral", "integrated"}
    if abs(alpha) < omega0:
        want_methods.add("closed-form")
    if set(blocks) != want_methods:
        return f"evolve: routes {sorted(blocks)}, expected {sorted(want_methods)}"
    n = int(round(op["t_max"] / op["dt"]))
    times = np.linspace(0.0, n * op["dt"], n + 1)
    exact = trajectory(alpha, omega0, op["i0"], op["v0"], op["inductance"], times)
    scale = float(np.abs(exact).max())
    for method, (ts, states) in blocks.items():
        if ts.shape != times.shape or not np.allclose(ts, times, rtol=1e-14, atol=0.0):
            return f"evolve: {method} time grid differs"
        tol = TRAJ_RTOL
        if method == "integrated":
            tol = rk4_rtol(alpha, omega0, op["t_max"], op["dt"])
        err = float(np.abs(states - exact).max()) / scale
        if not err <= tol:
            return f"evolve: {method} relative error {err:.3e} exceeds {tol:.1e}"
    return None


def check_sweep(op: dict, text: str) -> str | None:
    """Both eigenvalue branches of every ``sweep`` row against numpy."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != op["steps"] + 1:
        return f"sweep: {len(rows) - 1} rows, expected {op['steps']}"
    data = np.array([r[:5] for r in rows[1:]], dtype=float)
    alphas = np.linspace(op["alpha_min"], op["alpha_max"], op["steps"])
    if not np.array_equal(data[:, 0], alphas):
        return "sweep: alpha column differs from the requested grid"
    if not np.all(np.isfinite(data)):
        return "sweep: non-finite values"
    w = op["omega0"]
    stack = np.zeros((alphas.size, 2, 2), dtype=complex)
    stack[:, 0, 1] = 1j
    stack[:, 1, 0] = -1j * w * w
    stack[:, 1, 1] = -2j * alphas
    want = np.linalg.eigvals(stack)
    got_p = data[:, 1] + 1j * data[:, 2]
    got_m = data[:, 3] + 1j * data[:, 4]
    keep = np.maximum(np.abs(got_p - want[:, 0]), np.abs(got_m - want[:, 1]))
    swap = np.maximum(np.abs(got_p - want[:, 1]), np.abs(got_m - want[:, 0]))
    scale = np.maximum(np.abs(want).max(axis=1), w)
    err = float((np.minimum(keep, swap) / scale).max())
    if not err <= RTOL:
        return f"sweep: eigenvalue relative error {err:.3e}"
    return None


def check_mequiv(op: dict, verdict: dict) -> str | None:
    """The verdict against the pair's construction and numpy's invariants."""
    def mat(flat):
        return np.array([complex(flat[k], flat[k + 1]) for k in range(0, 8, 2)]).reshape(2, 2)

    a, b = mat(op["a"]), mat(op["b"])
    scale = 1.0 + max(np.abs(a).max(), np.abs(b).max())
    same = (abs(np.trace(a) - np.trace(b)) < 1e-9 * scale
            and abs(np.linalg.det(a) - np.linalg.det(b)) < 1e-9 * scale ** 2)
    want_meq, want_sim, want_dim = op["expect"]
    if same != want_meq:
        return "mequiv: construction and numpy invariants disagree"
    got = (verdict.get("m_equivalent"), verdict.get("similar"), verdict.get("intertwiner_dim"))
    if got != (want_meq, want_sim, want_dim):
        return f"mequiv: verdict {got}, expected {(want_meq, want_sim, want_dim)}"
    return None


def check_plane(alpha: float, omega0: float, out: dict) -> str | None:
    """The model pipeline of one point (fields copied out by the runner)."""
    h = generator(alpha, omega0)
    hd = h.conj().T
    if "lambda_ep" in out:
        split = ep_split(alpha, omega0)
        lam, mu = out["lambda_ep"], out["mu_ep"]
        for bad in (
            check_pair("lambda_ep", (lam, lam), h, split),
            check_pair("mu_ep", (mu, mu), hd, split),
        ):
            if bad is not None:
                return bad
    else:
        for bad in (
            check_pair("lambda", out["lambda"], h),
            check_pair("mu", out["mu"], hd),
            check_isospectral("similar_hamiltonian", out["h_sim"], h),
            check_isospectral("similar_hamiltonian_via_u", out["h_u"], h),
            check_isospectral("fermionized h_fho", out["h_fho"], h),
        ):
            if bad is not None:
                return bad
        for branch in ("plus", "minus"):
            rho, omega = out[f"rho_{branch}"], out[f"omega_{branch}"]
            if (bad := check_pair(f"ladder spectrum {branch}", (rho, rho + omega), h)) is not None:
                return bad
        a_op = np.asarray(out["a_op"])
        anti = a_op @ a_op.conj().T + a_op.conj().T @ a_op - np.eye(2)
        scale = 1.0 + np.abs(a_op).max() ** 2
        if not max(np.abs(anti).max(), np.abs(a_op @ a_op).max()) <= RTOL * scale:
            return "fermionize: A is not a fermion operator"
    parity = np.array([[0.0, 1.0], [1.0, 0.0]])
    pt = bool(np.abs(h @ parity - parity @ h.conj()).max() < 1e-12)
    if out["pt_symmetric"] != pt:
        return "pt_check: flag disagrees with [PT, H]"
    # H and H^dag: traces -2i*alpha and 2i*alpha differ, so the pair is not
    # m-equivalent, not similar, and (distinct spectra) has no intertwiner.
    if out["m_equivalent"] or out["similar"] or out["intertwiner_dim"] != 0:
        return "H vs H^dag: reported equivalent, similar or intertwined"
    return None
