"""The public surface of the package, as ``nhrlc.__all__`` states it."""

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
