"""Every name a module exports in ``__all__`` resolves on a star import."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["nfclm", "nfclm.seqmodel"])
def test_star_import_resolves_every_exported_name(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert len(set(exported)) == len(exported)
    assert sorted(set(exported) - set(namespace)) == []
