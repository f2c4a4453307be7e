"""Every name a module exports in ``__all__`` resolves on a star import,
and the package imports nothing beyond the standard library."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "nfclm").glob("*.py"))


@pytest.mark.parametrize("module", ["nfclm", "nfclm.seqmodel"])
def test_star_import_resolves_every_exported_name(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert len(set(exported)) == len(exported)
    assert sorted(set(exported) - set(namespace)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_runtime_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert sorted({name.split(".")[0] for name in imported}
                  - sys.stdlib_module_names) == []
