"""Every module-level import in ``smoothdyn`` is used by its module.

An ``ast`` scan: each name a top-level ``import`` or ``from ... import``
binds must appear as a ``Name`` (which also covers the base of every
``Attribute`` chain such as ``np.random``) somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

import smoothdyn

MODULES = sorted(Path(smoothdyn.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom typing import List, Tuple\nx: List = np.zeros(1)\n"
    assert unused_imports(source) == [(1, "os"), (3, "Tuple")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
