"""The kernels that work on Python scalars against numpy forms of the same formulas.

``pf_identify`` feeds the gated H_PF residual and ``sqrt_pos_hermitian`` is a
public kernel, so both must equal their numpy forms entry for entry (``==``:
only a zero's sign may differ). The ladder residuals, the fermionized pair, the SUSY partner and
the antilinear map feed no gate; numpy's complex product fuses multiply-adds
and Python's does not, so they are held to a few eps of the operand sizes.
Points are drawn on the loss and the gain side, omega0 from 1e-3 to 1e6,
including the near side of the exceptional point.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nhrlc import (
    CircuitParams,
    Phase,
    antilinear_u,
    classify,
    eigensystem,
    fermionize,
    gain_hamiltonian,
    ladder_check,
    pf_construct,
    pf_identify,
    positive_pair,
    similar_hamiltonian_via_u,
    sqrt_pos_hermitian,
    susy_partner,
)
from nhrlc.cxmat import HERMITICITY_ATOL, as_cmat, outer
from nhrlc.errors import NotPositiveHermitian
from nhrlc.pseudofermion import _ladder_basis

from helpers import ladder_reference

EPS = np.finfo(float).eps
FEW = 8  # eps of the operand sizes a rewritten product may differ by


@st.composite
def points(draw):
    omega0 = 10.0 ** draw(st.floats(min_value=-3.0, max_value=6.0))
    zeta = draw(st.one_of(
        st.floats(min_value=1e-3, max_value=3.0),
        st.floats(min_value=-9.0, max_value=-1.0).map(lambda e: 1.0 - 10.0**e),
        st.floats(min_value=-9.0, max_value=-1.0).map(lambda e: 1.0 + 10.0**e),
    ))
    sign = draw(st.sampled_from((1.0, -1.0)))
    params = CircuitParams.from_rates(sign * zeta * omega0, omega0)
    assume(classify(params) is not Phase.EXCEPTIONAL)
    return params


def sqrt_reference(m):
    """sqrt_pos_hermitian as numpy array arithmetic on the unscaled matrix."""
    a = as_cmat(m, 2)
    if np.abs(a - a.conj().T).max() > HERMITICITY_ATOL * np.abs(a).max():
        raise NotPositiveHermitian("matrix is not Hermitian")
    h = (a + a.conj().T) / 2.0
    tr = float(h[0, 0].real + h[1, 1].real)
    det = float((h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]).real)
    if not (tr > 0.0 and det > 0.0):
        raise NotPositiveHermitian("matrix has a non-positive eigenvalue")
    s = np.sqrt(det)
    return (h + s * np.eye(2)) / np.sqrt(tr + 2.0 * s)


def pf_identify_reference(params, branch):
    """pf_identify with both outer products built in full and the basis set by _replace."""
    system = eigensystem(params)
    rho, other = system.mu_plus.conjugate(), system.mu_minus.conjugate()
    if branch == "minus":
        rho, other = other, rho
    a, b = 1j * rho, 1j * other
    phi_m, phi_p, dual_m, dual_p = _ladder_basis(system, rho)
    a12 = complex(outer(phi_m, dual_p)[0, 1])
    b12 = complex(outer(phi_p, dual_m)[0, 1])
    pf = pf_construct(a, b, a12, b12, omega=1j * (a - b), rho=rho)
    return pf._replace(phi_minus=phi_m, phi_plus=phi_p, psi_minus=dual_m, psi_plus=dual_p)


def size(x) -> float:
    return float(np.abs(np.asarray(x)).max())


def assert_close(got, want, scale):
    assert size(np.asarray(got) - want) <= FEW * EPS * scale


@settings(max_examples=100, deadline=None, derandomize=True)
@given(points(), st.sampled_from(("plus", "minus")))
def test_pf_identify_equals_the_outer_product_formula(params, branch):
    got, want = pf_identify(params, branch), pf_identify_reference(params, branch)
    for name in want._fields:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@settings(max_examples=100, deadline=None, derandomize=True)
@given(points())
def test_sqrt_pos_hermitian_equals_the_numpy_formula(params):
    pair = positive_pair(eigensystem(params))
    for m in (pair.s_psi, pair.s_phi):
        assert np.array_equal(sqrt_pos_hermitian(m), sqrt_reference(m))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(points(), st.sampled_from(("plus", "minus")))
def test_ladder_check_within_the_reference_bound(params, branch):
    system = eigensystem(params)
    pf = pf_identify(params, branch)
    got, ref = ladder_check(pf, system), ladder_reference(pf, system)
    assert list(got) == list(ref)
    ops = (pf.c_op, pf.cc_op, pf.cc_op @ pf.c_op, pf.c_op.conj().T @ pf.cc_op.conj().T)
    vecs = (pf.phi_minus, pf.phi_plus, pf.psi_minus, pf.psi_plus)
    scale = max(map(size, ops)) * max(map(size, vecs))
    for key in ref:
        assert abs(got[key] - ref[key]) <= 4 * EPS * scale, key


@settings(max_examples=100, deadline=None, derandomize=True)
@given(points())
def test_fermionize_and_susy_partner_near_their_numpy_forms(params):
    pf = pf_identify(params, "plus")
    pair = positive_pair(eigensystem(params))
    got = fermionize(pf, pair)
    root_psi, root_phi = sqrt_pos_hermitian(pair.s_psi), sqrt_pos_hermitian(pair.s_phi)
    assert_close(got.a_op, root_psi @ pf.c_op @ root_phi,
                 size(root_psi) * size(pf.c_op) * size(root_phi))
    for e, phi in ((got.e_plus, pf.phi_plus), (got.e_minus, pf.phi_minus)):
        assert_close(e, root_psi @ phi, size(root_psi) * size(phi))
    a, w, rho = got.a_op, pf.omega, pf.rho
    assert_close(got.h_fho, w * (a.conj().T @ a) + rho * np.eye(2), abs(w) * size(a) ** 2 + abs(rho))
    assert_close(
        susy_partner(pf), w * (pf.c_op @ pf.cc_op) + rho * np.eye(2),
        abs(w) * size(pf.c_op) * size(pf.cc_op) + abs(rho),
    )
    assert np.array_equal(got.h_susy, susy_partner(pf))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(points(), st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=4, max_size=4))
def test_antilinear_u_and_the_similar_hamiltonian_near_their_numpy_forms(params, parts):
    system = eigensystem(params)
    phis, psis = (system.phi_plus, system.phi_minus), (system.psi_plus, system.psi_minus)

    def u_reference(f):
        return sum(np.vdot(f, phi) * psi for phi, psi in zip(phis, psis))

    reach = sum(map(size, phis)) * sum(map(size, psis))
    f = np.array(parts[:2]) + 1j * np.array(parts[2:])
    assert_close(antilinear_u(system, f), u_reference(f), size(f) * reach)
    hd = gain_hamiltonian(params)
    want = np.column_stack([u_reference(hd @ u_reference(e)) for e in np.eye(2)])
    assert_close(similar_hamiltonian_via_u(system, hd), want, size(hd) * reach**2)
