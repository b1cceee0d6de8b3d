"""The benchmark's view of the API: every name perfbench/workloads.py
imports from neosim must resolve, so removing one fails here too."""

import ast
import importlib
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def neosim_imports() -> list[tuple[str, str]]:
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "neosim"
        for alias in node.names
    ]


def test_workloads_import_from_neosim():
    assert len(neosim_imports()) > 10


@pytest.mark.parametrize("module, name", neosim_imports())
def test_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
