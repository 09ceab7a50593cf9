"""The public surface of the package, as ``nhrlc.__all__`` states it."""

import dataclasses
import importlib
import types

import pytest

import nhrlc


def test_all_is_the_public_surface():
    names = nhrlc.__all__
    assert names == sorted(set(names))
    assert not [n for n in names if n.startswith("_")]
    assert not [n for n in names if not hasattr(nhrlc, n)]
    assert not [n for n in names if isinstance(getattr(nhrlc, n), types.ModuleType)]
    namespace: dict = {}
    exec("from nhrlc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == names
    assert len(names) == 68


def test_each_name_is_its_home_modules_object():
    for module, names in nhrlc._EXPORTS.items():
        home = importlib.import_module(f"nhrlc.{module}")
        assert not [n for n in names if getattr(nhrlc, n) is not getattr(home, n)]
    assert set(nhrlc.__all__) <= set(dir(nhrlc))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        nhrlc.not_a_name


def test_a_name_is_resolved_once(monkeypatch):
    monkeypatch.delitem(vars(nhrlc), "pt_check", raising=False)
    first = nhrlc.pt_check
    assert vars(nhrlc)["pt_check"] is first


# the result records and their field order, as the package has always built them
RECORDS = {
    "BiorthogonalSystem": (
        "phase", "alpha", "omega0", "lambda_plus", "lambda_minus", "mu_plus", "mu_minus",
        "n_phi_plus", "n_phi_minus", "n_psi_plus", "n_psi_minus",
        "phi_plus", "phi_minus", "psi_plus", "psi_minus", "n_pp", "n_pm", "n_mp", "n_mm"),
    "EpSystem": ("alpha", "lambda_ep", "mu_ep", "phi_ep", "psi_ep"),
    "Trajectory": ("times", "states", "method"),
    "MetricPair": ("s_phi", "s_psi", "kind"),
    "IntertwinerReport": ("residual_h_sphi", "residual_spsi_h", "residual_adjoint"),
    "PseudoFermionPair": (
        "a", "b", "a12", "b12", "gamma", "omega", "rho", "c_op", "cc_op",
        "phi_minus", "phi_plus", "psi_minus", "psi_plus"),
    "FermionizedSystem": ("a_op", "e_plus", "e_minus", "h_fho", "h_susy"),
    "PtReport": ("probe_residuals", "is_pt_symmetric"),
    "OdeCoefficients": ("order", "coefficients"),
    "LiouvilleSystem": ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "matrix", "h_eff"),
}


@pytest.mark.parametrize("name, fields", RECORDS.items(), ids=list(RECORDS))
def test_a_result_record_is_an_immutable_named_tuple(name, fields):
    cls = getattr(nhrlc, name)
    assert not dataclasses.is_dataclass(cls)
    assert cls._fields == fields
    record = cls(**{field: k for k, field in enumerate(fields)})
    with pytest.raises(AttributeError):
        setattr(record, fields[0], -1)
    assert not hasattr(record, "__dict__")
    changed = record._replace(**{fields[-1]: -1})
    assert type(changed) is cls and changed is not record
    assert changed == (*range(len(fields) - 1), -1)
    assert tuple(record) == tuple(range(len(fields)))
