"""Machine-readable analysis report for one parameter point.

The report is a plain JSON-serializable dict (schema 1): complex numbers are
{"re": x, "im": y} objects, matrices nested lists of those. Every residual
carries a documented tolerance; :func:`build_report` returns the violated
ones alongside the report so callers can self-diagnose.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from . import dynamics, metric, pseudofermion
from .circuit import CircuitParams, Phase, classify, hamiltonian
from .cxmat import operator_norm, trace_det
from .errors import ExistenceViolation
from .spectral import ep_system, eigensystem

SCHEMA_VERSION = 1

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


def rk_tolerance(step: float) -> float:
    """Documented agreement bound for the RK4 route at the given step."""
    return max(1e-9, 1e-6 * (step / 1e-3) ** 4)


def route_agreement(trajectories: dict, rk_step: float) -> list:
    """(a, b, max error, its time, bound) for each pair of named routes on one
    grid, in order; pairs with "rk" are bounded by rk_tolerance(rk_step)."""
    out = []
    for name_a, name_b in itertools.combinations(trajectories, 2):
        err, at = dynamics.compare(trajectories[name_a], trajectories[name_b])
        rk_pair = "rk" in (name_a, name_b)
        bound = rk_tolerance(rk_step) if rk_pair else TOLERANCES["closed_vs_spectral"]
        out.append((name_a, name_b, err, at, bound))
    return out


def c2j(z) -> dict:
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def m2j(m) -> list:
    a = np.asarray(m, dtype=complex)
    return [[c2j(v) for v in row] for row in a]


class ReportResult(NamedTuple):
    report: dict
    violations: list[str]


def build_report(
    params: CircuitParams,
    t_max: float = 10.0,
    dt: float = 0.01,
    rk_step: float = 1e-3,
    i0: float = 1.0,
    v0: float = 0.0,
) -> ReportResult:
    """Assemble the full spectral/metric/ladder/dynamics report."""
    phase = classify(params)
    h = hamiltonian(params)
    violations: list[str] = []

    def check(name: str, value: float, tol: float) -> float:
        if not value <= tol:  # a NaN residual fails too
            violations.append(f"{name} = {value:.3e} exceeds {tol:.1e}")
        return float(value)

    report: dict = {
        "schema": SCHEMA_VERSION,
        "input": {
            "alpha": float(params.alpha),
            "omega0": float(params.omega0),
            "resistance": params.resistance,
            "inductance": params.inductance,
            "capacitance": params.capacitance,
            "phase": phase.value,
        },
    }

    if phase is Phase.EXCEPTIONAL:
        ep = ep_system(params)
        report["spectral"] = {
            "lambda_ep": c2j(ep.lambda_ep),
            "mu_ep": c2j(ep.mu_ep),
            "phi_ep": [c2j(v) for v in ep.phi_ep],
            "psi_ep": [c2j(v) for v in ep.psi_ep],
            "self_orthogonality_residual": check(
                "self_orthogonality_residual",
                abs(ep.self_orthogonality),
                TOLERANCES["self_orthogonality_residual"],
            ),
        }
        report["metric"] = None
        report["pseudofermion"] = {
            "existence_violation": True,
            "pt_symmetric": pseudofermion.pt_check(h).is_pt_symmetric,
        }
    else:
        system = eigensystem(params)
        target = 1.0 if phase is Phase.BROKEN else 0.0
        biorth = max(
            abs(system.n_pp - target),
            abs(system.n_mm - target),
            abs(system.n_pm - (1.0 - target)),
            abs(system.n_mp - (1.0 - target)),
        )
        report["spectral"] = {
            "lambda_plus": c2j(system.lambda_plus),
            "lambda_minus": c2j(system.lambda_minus),
            "mu_plus": c2j(system.mu_plus),
            "mu_minus": c2j(system.mu_minus),
            "normalization_products": {
                "phi_plus_psi_plus": c2j(np.conj(system.n_phi_plus) * system.n_psi_plus),
                "phi_plus_psi_minus": c2j(np.conj(system.n_phi_plus) * system.n_psi_minus),
                "phi_minus_psi_plus": c2j(np.conj(system.n_phi_minus) * system.n_psi_plus),
                "phi_minus_psi_minus": c2j(np.conj(system.n_phi_minus) * system.n_psi_minus),
            },
            "biorthogonality_residual": check(
                "biorthogonality_residual", biorth, TOLERANCES["biorthogonality_residual"]
            ),
        }

        pair = metric.metric_pair(system)
        h_sim = metric.similar_hamiltonian(system, pair, h)
        inter = metric.verify_intertwining(h, h_sim, pair)
        inverse_residual = operator_norm(pair.s_phi @ pair.s_psi - np.eye(2))
        # the phase-adapted pair maps psi -> phi index-preservingly in both phases
        mapping_residual = max(
            float(np.linalg.norm(pair.s_phi @ system.psi_plus - system.phi_plus)),
            float(np.linalg.norm(pair.s_psi @ system.phi_minus - system.psi_minus)),
        )
        report["metric"] = {
            "kind": pair.kind,
            "s_phi": m2j(pair.s_phi),
            "s_psi": m2j(pair.s_psi),
            "similar_hamiltonian": m2j(h_sim),
            "inverse_residual": check(
                "inverse_residual", inverse_residual, TOLERANCES["inverse_residual"]
            ),
            "mapping_residual": check(
                "mapping_residual", mapping_residual, TOLERANCES["mapping_residual"]
            ),
            "intertwining": {
                "h_sphi": check(
                    "intertwining_residual",
                    inter.residual_h_sphi,
                    TOLERANCES["intertwining_residual"],
                ),
                "spsi_h": check(
                    "intertwining_residual",
                    inter.residual_spsi_h,
                    TOLERANCES["intertwining_residual"],
                ),
                "adjoint": check(
                    "intertwining_residual",
                    inter.residual_adjoint,
                    TOLERANCES["intertwining_residual"],
                ),
            },
        }

        try:
            pf = pseudofermion.pf_identify(params, "plus")
            anticomm = operator_norm(pf.c_op @ pf.cc_op + pf.cc_op @ pf.c_op - np.eye(2))
            report["pseudofermion"] = {
                "a": c2j(pf.a),
                "b": c2j(pf.b),
                "gamma": c2j(pf.gamma),
                "omega": c2j(pf.omega),
                "rho": c2j(pf.rho),
                "anticommutator_residual": check(
                    "anticommutator_residual", anticomm, TOLERANCES["anticommutator_residual"]
                ),
                "c_squared_residual": check(
                    "nilpotency_residual",
                    operator_norm(pf.c_op @ pf.c_op),
                    TOLERANCES["nilpotency_residual"],
                ),
                "cc_squared_residual": check(
                    "nilpotency_residual",
                    operator_norm(pf.cc_op @ pf.cc_op),
                    TOLERANCES["nilpotency_residual"],
                ),
                "hamiltonian_residual": check(
                    "hamiltonian_residual",
                    float(np.abs(pseudofermion.hpf_build(pf) - h).max()),
                    TOLERANCES["hamiltonian_residual"],
                ),
                "pt_symmetric": pseudofermion.pt_check(h).is_pt_symmetric,
            }
        except ExistenceViolation:
            report["pseudofermion"] = {
                "existence_violation": True,
                "pt_symmetric": pseudofermion.pt_check(h).is_pt_symmetric,
            }

    tr, det = trace_det(h)
    report["equivalence"] = {"trace": c2j(tr), "det": c2j(det)}

    grid = dynamics.uniform_grid(t_max, dt)
    init = dynamics.InitialData(
        i0=i0, v0=v0, inductance=params.inductance if params.inductance else 1.0
    )
    routes = {}
    if phase is Phase.BROKEN:
        routes["closed"] = dynamics.evolve_closed_form(params, init, grid)
    spectral = dynamics.evolve_spectral(params, init, grid)
    routes[spectral.method] = spectral  # "expm" at the exceptional point
    routes["rk"] = dynamics.evolve_integrated(params, init, grid, step=rk_step)
    dyn: dict = {
        "t_max": float(t_max),
        "dt": float(dt),
        "rk_step": float(rk_step),
    }
    for name_a, name_b, err, _, bound in route_agreement(routes, rk_step):
        key = f"{name_a}_vs_{name_b}"
        dyn[key] = check(key, err, bound)
    report["dynamics"] = dyn

    return ReportResult(report=report, violations=violations)
