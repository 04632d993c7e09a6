"""Module boundaries: no module imports a private name from another.

A private name shared across modules is a decision that more than one
module has to know; the owner should expose it as a public method or
function instead.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wudlab"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_private_cross_module_imports(path):
    bad = [
        f"line {node.lineno}: from {node.module} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "wudlab"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not bad, f"{path.name} imports private names: {bad}"
