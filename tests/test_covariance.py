"""Exact power-of-four covariance of every value the model computes.

H(s*alpha, s*omega0) = s D H(alpha, omega0) D^-1 with D = diag(1, s), and for s = 4^j
binary floating point keeps this exactly: products scale by powers of two, and the
square root of 4^j x is exactly 2^j sqrt(x). So each value of the scaled circuit is
bitwise base * 4^(j*p), p the value's unit: 1 for a rate, and per entry for vectors
and matrices (phi = D phihat, psi = D^-1 psihat, S_phi = D Shat D, c = D chat D^-1,
the similar Hamiltonian h = omega0 D^-1 hhat D). A step that mixes units on a value
path, such as pivoting between entries of different units, breaks it. Gate residuals
and verdicts are not values and are left out here.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhrlc import (
    CircuitParams, InitialData, Phase, Trajectory, build_report, classify, dynamics, eigensystem,
    ep_system, metric_pair, pf_identify,
)


def entrywise(offset, row, col):
    """Units offset + row*i + col*k of the entries (i, k) of a 2x2 matrix."""
    return tuple(tuple(offset + row * i + col * k for k in (0, 1)) for i in (0, 1))


VEC, DUAL = (0, 1), (0, -1)  # phi = D phihat, psi = D^-1 psihat
S_PHI, S_PSI = entrywise(0, 1, 1), entrywise(0, -1, -1)  # D Shat D, D^-1 Shat D^-1
LADDER = entrywise(0, 1, -1)  # c = D chat D^-1
SIMILAR = entrywise(1, -1, 1)  # h = omega0 D^-1 hhat D

SYSTEM_UNITS = {
    "phase": None, "alpha": 1, "omega0": 1,
    "lambda_plus": 1, "lambda_minus": 1, "mu_plus": 1, "mu_minus": 1,
    "n_phi_plus": 0, "n_phi_minus": 0, "n_psi_plus": 0, "n_psi_minus": 0,
    "phi_plus": VEC, "phi_minus": VEC, "psi_plus": DUAL, "psi_minus": DUAL,
    "n_pp": 0, "n_pm": 0, "n_mp": 0, "n_mm": 0,
}
PAIR_UNITS = {"s_phi": S_PHI, "s_psi": S_PSI, "kind": None}
LADDER_UNITS = {
    "a": 1, "b": 1, "a12": -1, "b12": -1, "gamma": -1, "omega": 1, "rho": 1,
    "c_op": LADDER, "cc_op": LADDER,
    "phi_minus": VEC, "phi_plus": VEC, "psi_minus": DUAL, "psi_plus": DUAL,
}
EP_UNITS = {"alpha": 1, "lambda_ep": 1, "mu_ep": 1, "phi_ep": VEC, "psi_ep": DUAL}

# the report's value leaves by their keys; None marks a label, compared for equality
REPORT_UNITS = {
    ("schema",): None, ("input", "alpha"): 1, ("input", "omega0"): 1,
    ("input", "resistance"): None, ("input", "inductance"): None,
    ("input", "capacitance"): None, ("input", "phase"): None,
    **{("spectral", key): 1 for key in
       ("lambda_plus", "lambda_minus", "mu_plus", "mu_minus", "lambda_ep", "mu_ep")},
    ("spectral", "normalization_products"): 0,
    ("spectral", "phi_ep"): VEC, ("spectral", "psi_ep"): DUAL,
    ("metric",): None, ("metric", "kind"): None, ("metric", "s_phi"): S_PHI,
    ("metric", "s_psi"): S_PSI, ("metric", "similar_hamiltonian"): SIMILAR,
    **{("pseudofermion", key): LADDER_UNITS[key] for key in ("a", "b", "gamma", "omega", "rho")},
    ("equivalence", "trace"): 1, ("equivalence", "det"): 2,
    ("dynamics", "t_max"): -1, ("dynamics", "dt"): -1, ("dynamics", "rk_step"): 0,
}


def is_verdict(keys) -> bool:
    """A gate residual, a route pair or a flag: scaling may move it."""
    name = keys[-1]
    return (name.endswith("_residual") or "_vs_" in name or "intertwining" in keys
            or name in ("pt_symmetric", "existence_violation"))


def assert_image(base, scaled, unit, j, where):
    """scaled is bitwise base * 4^(j*unit), entry by entry and part by part."""
    if unit is None:
        assert scaled == base, where
        return
    if isinstance(base, np.ndarray):
        units = np.broadcast_to(unit, base.shape).ravel().tolist()
        for k, (x, y, p) in enumerate(zip(base.ravel().tolist(), scaled.ravel().tolist(), units)):
            assert_image(x, y, p, j, (*where, k))
        return
    for part in ("real", "imag") if isinstance(base, complex) else ("real",):
        want = math.ldexp(getattr(base, part), 2 * j * unit)
        assert getattr(scaled, part).hex() == want.hex(), (*where, part, base, scaled)


def report_leaves(node, path=()):
    """(keys, indices, value) per leaf, with {"re", "im"} read as one complex value."""
    if isinstance(node, dict) and set(node) == {"re", "im"}:
        yield tuple(k for k in path if isinstance(k, str)), tuple(
            k for k in path if isinstance(k, int)), complex(node["re"], node["im"])
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from report_leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from report_leaves(value, (*path, i))
    else:
        yield tuple(k for k in path if isinstance(k, str)), (), node


def unit_of(keys, indices):
    unit = REPORT_UNITS[keys] if keys in REPORT_UNITS else REPORT_UNITS[keys[:-1]]  # or its group's
    for i in indices:
        unit = unit[i]
    return unit


# zeta = alpha/omega0 per kind; the EP band is |zeta| - 1 within 1e-12
KINDS = {
    "bp": (1e-3, 0.999), "up": (1.001, 1e3), "ep": (1.0 - 4e-13, 1.0 + 4e-13),
}


@st.composite
def scaled_pairs(draw, kinds=tuple(sorted(KINDS))):
    kind = draw(st.sampled_from(kinds))
    lo, hi = KINDS[kind]
    zeta = draw(st.floats(lo, hi)) if kind == "ep" else 10.0 ** draw(
        st.floats(math.log10(lo), math.log10(hi)))
    sign = draw(st.sampled_from([1.0, -1.0]))  # loss or gain
    omega0 = 10.0 ** draw(st.floats(-3.0, 3.0))
    j = draw(st.sampled_from([-30, -7, -1, 1, 7, 30]))
    base = CircuitParams.from_rates(sign * zeta * omega0, omega0)
    scaled = CircuitParams.from_rates(math.ldexp(base.alpha, 2 * j), math.ldexp(omega0, 2 * j))
    return base, scaled, j


def assert_fields(base, scaled, units, j):
    assert set(base._fields) == set(units)
    for name, unit in units.items():
        assert_image(getattr(base, name), getattr(scaled, name), unit, j, (name,))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scaled_pairs())
def test_every_report_value_is_an_exact_image(pair):
    base, scaled, j = pair
    # a grid of 16 steps over one time unit of the base circuit, scaled by 4^-j
    reports = [build_report(p, t_max=math.ldexp(1.0, -2 * k), dt=math.ldexp(1 / 16, -2 * k))
               .report for p, k in ((base, 0), (scaled, j))]
    leaves, scaled_leaves = (list(report_leaves(r)) for r in reports)
    assert [leaf[:2] for leaf in leaves] == [leaf[:2] for leaf in scaled_leaves]
    for (keys, indices, value), (_, _, image) in zip(leaves, scaled_leaves):
        if not is_verdict(keys):
            assert_image(value, image, unit_of(keys, indices), j, (*keys, *indices))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scaled_pairs())
def test_the_model_layers_are_exact_images(pair):
    base, scaled, j = pair
    assert classify(scaled) is classify(base)
    if classify(base) is Phase.EXCEPTIONAL:
        assert_fields(ep_system(base), ep_system(scaled), EP_UNITS, j)
        return
    systems = eigensystem(base), eigensystem(scaled)
    assert_fields(*systems, SYSTEM_UNITS, j)
    assert_fields(*map(metric_pair, systems), PAIR_UNITS, j)
    for branch in ("plus", "minus"):
        assert_fields(pf_identify(base, branch), pf_identify(scaled, branch), LADDER_UNITS, j)


# libm's pow(x, 0.5) misrounds this base's overdamped rate; math.sqrt is correctly rounded
UP_BASE = (3.4438932671306226, 0.8541250882722223)


@example((CircuitParams.from_rates(*UP_BASE), CircuitParams.from_rates(*(4 * x for x in UP_BASE)), 1))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(scaled_pairs(kinds=("up",)))
def test_the_overdamped_rk_step_is_an_exact_image(pair):
    """The step cross_check hands the RK route is rk_step over the overdamped rate, so a
    time: the scaled circuit's step is bitwise the base's over 4^j."""
    base, scaled, j = pair
    steps = []

    def recorded(params, init, grid, step):
        steps.append(step)
        return Trajectory(grid, np.zeros((grid.size, 2)), "rk")

    with mock.patch.object(dynamics, "evolve_integrated", recorded):
        for params in (base, scaled):
            # one sample at 1/omega0, past the step rk_step/rate < 1e-3/omega0
            grid = np.array([0.0, 1.0 / params.omega0])
            dynamics.cross_check(params, InitialData(1.0, 0.0, 1.0), grid, method="rk")
    assert steps[1].hex() == math.ldexp(steps[0], -2 * j).hex(), (base, scaled, steps)
