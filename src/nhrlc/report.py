"""Machine-readable analysis report for one parameter point: its gates and its JSON.

The report is a plain JSON-serializable dict (schema 1): complex numbers are
{"re": x, "im": y} objects, matrices nested lists of those. Every residual is a
gate, bounded by ``errors.TOLERANCES`` or the route pairs of ``dynamics.cross_check``
and judged by ``errors.exceeds``; those and ``RK_STEP``, ``rk_tolerance`` and
``route_agreement`` are bound here too. :func:`build_report` returns the violated
gates alongside the report so callers can self-diagnose.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import dynamics, metric, pseudofermion
from .circuit import CircuitParams, Phase, classify, hamiltonian
from .cxmat import operator_norm, trace_det
from .dynamics import RK_STEP, cross_check, rk_tolerance, route_agreement  # noqa: F401
from .errors import TOLERANCES, ExistenceViolation, exceeds
from .spectral import ep_system, eigensystem

SCHEMA_VERSION = 1


def c2j(z) -> dict:
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def m2j(m) -> list:
    return [[c2j(v) for v in row] for row in np.asarray(m, dtype=complex).tolist()]


class ReportResult(NamedTuple):
    report: dict
    violations: list[str]


def build_report(
    params: CircuitParams,
    t_max: float = 10.0,
    dt: float = 0.01,
    rk_step: float = RK_STEP,
    i0: float = 1.0,
    v0: float = 0.0,
) -> ReportResult:
    """Assemble the full spectral/metric/ladder/dynamics report."""
    phase = classify(params)
    h = hamiltonian(params)
    violations: list[str] = []

    def check(name: str, value: float, bound: float | None = None) -> float:
        bound = TOLERANCES[name] if bound is None else bound
        if exceeds(value, bound):
            violations.append(f"{name} = {value:.3e} exceeds {bound:.1e}")
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

    ladder: dict = {"existence_violation": True}
    if phase is Phase.EXCEPTIONAL:
        ep = ep_system(params)
        report["spectral"] = {
            "lambda_ep": c2j(ep.lambda_ep),
            "mu_ep": c2j(ep.mu_ep),
            "phi_ep": [c2j(v) for v in ep.phi_ep],
            "psi_ep": [c2j(v) for v in ep.psi_ep],
            "self_orthogonality_residual": check(
                "self_orthogonality_residual", abs(ep.self_orthogonality)
            ),
        }
        report["metric"] = None
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
            "biorthogonality_residual": check("biorthogonality_residual", biorth),
        }

        with np.errstate(over="ignore", invalid="ignore"):  # as_cmat refuses what overflows
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
            "inverse_residual": check("inverse_residual", inverse_residual),
            "mapping_residual": check("mapping_residual", mapping_residual),
            "intertwining": {
                "h_sphi": check("intertwining_residual", inter.residual_h_sphi),
                "spsi_h": check("intertwining_residual", inter.residual_spsi_h),
                "adjoint": check("intertwining_residual", inter.residual_adjoint),
            },
        }

        try:
            pf = pseudofermion.pf_identify(params, "plus")
            anticomm = operator_norm(pf.c_op @ pf.cc_op + pf.cc_op @ pf.c_op - np.eye(2))
            ladder = {
                "a": c2j(pf.a),
                "b": c2j(pf.b),
                "gamma": c2j(pf.gamma),
                "omega": c2j(pf.omega),
                "rho": c2j(pf.rho),
                "anticommutator_residual": check("anticommutator_residual", anticomm),
                "c_squared_residual": check(
                    "nilpotency_residual", operator_norm(pf.c_op @ pf.c_op)
                ),
                "cc_squared_residual": check(
                    "nilpotency_residual", operator_norm(pf.cc_op @ pf.cc_op)
                ),
                "hamiltonian_residual": check(
                    "hamiltonian_residual",
                    float(np.abs(pseudofermion.hpf_build(pf) - h).max()),
                ),
            }
        except ExistenceViolation:
            pass  # no ladder: the report keeps existence_violation
    ladder["pt_symmetric"] = pseudofermion.pt_check(h).is_pt_symmetric
    report["pseudofermion"] = ladder

    tr, det = trace_det(h)
    report["equivalence"] = {"trace": c2j(tr), "det": c2j(det)}

    grid = dynamics.uniform_grid(t_max, dt)
    init = dynamics.InitialData(
        i0=i0, v0=v0, inductance=params.inductance if params.inductance else 1.0
    )
    dyn: dict = {
        "t_max": float(t_max),
        "dt": float(dt),
        "rk_step": float(rk_step),
    }
    for name_a, name_b, err, _, bound in cross_check(params, init, grid, rk_step)[1]:
        key = f"{name_a}_vs_{name_b}"
        dyn[key] = check(key, err, bound)
    report["dynamics"] = dyn

    return ReportResult(report=report, violations=violations)
