"""The package namespace: an explicit public API, no re-exported helper modules."""

import classvoice


def test_every_public_name_resolves():
    assert len(set(classvoice.__all__)) == len(classvoice.__all__)
    for name in classvoice.__all__:
        assert getattr(classvoice, name) is not None, name


def test_helper_modules_are_not_reexported():
    for name in ("np", "json", "dataclass", "Path", "os"):
        assert not hasattr(classvoice, name), name
    namespace = {}
    exec("from classvoice import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(classvoice.__all__)
