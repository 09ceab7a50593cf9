"""The public surface of the package, as ``nhrlc.__all__`` states it."""

import types

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
