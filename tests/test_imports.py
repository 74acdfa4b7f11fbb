"""Every module-level import in ``smoothdyn`` is used by its module, and
every public module-level ``def`` or ``class`` is used somewhere.

Two ``ast`` scans.  Imports: each name a top-level ``import`` or
``from ... import`` binds must appear as a ``Name`` (which also covers the
base of every ``Attribute`` chain such as ``np.random``) somewhere in the
module.  Public names: each must appear as a ``Name`` or an attribute
outside its own body, in some ``smoothdyn`` module, in the benchmark's
workload code or in the acceptance suite; the unit tests do not count.
"""

import ast
from pathlib import Path

import pytest

import smoothdyn

MODULES = sorted(Path(smoothdyn.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parent.parent
USERS = [REPO / "perfbench" / f for f in ("run.py", "workloads.py", "tracing.py")] + [
    REPO / "tests" / "test_acceptance.py"
]

# Public names that nothing calls yet, each kept for a planned use.
UNREFERENCED_KEPT = {
    # the model-hierarchy experiment (ROADMAP)
    "multiphase_embed",
    "LazyFlipAdapter",
    "FlipSimulatingARAdversary",
    "p_prime",
    # simulate's adversarial start, --h0 (ROADMAP)
    "smooth_initial",
    # the run manifest's replayable event-log dump (ROADMAP)
    "write_event_log",
    # the edge-list and OuMv file formats at the input boundary
    "read_edge_list",
    "write_edge_list",
    "read_oumv_instance",
    "write_oumv_instance",
    # Koenig cross-check of bf_bipartite_matching
    "bf_min_vertex_cover_bipartite",
    # inverse of index_pair
    "pair_index",
}


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


def unreferenced_public_names(modules: dict, users: dict) -> list:
    """(module, name) of each public top-level def/class in ``modules`` that
    no ``Name`` or attribute outside its own body, in ``modules`` or
    ``users`` (both path -> source), refers to."""
    trees = {path: ast.parse(source) for path, source in {**modules, **users}.items()}
    unreferenced = []
    for path in modules:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if not any(_refers(tree, node) for tree in trees.values()):
                unreferenced.append((Path(path).name, node.name))
    return unreferenced


def _refers(tree: ast.AST, definition: ast.AST) -> bool:
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is definition:
            continue
        if isinstance(node, ast.Name) and node.id == definition.name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == definition.name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_scan_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom typing import List, Tuple\nx: List = np.zeros(1)\n"
    assert unused_imports(source) == [(1, "os"), (3, "Tuple")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unreferenced_public_names():
    modules = {
        "a.py": "def used():\n    return helper()\n\ndef helper():\n    return 1\n\n"
        "def recursive(k):\n    return recursive(k - 1)\n\nclass Lone:\n    pass\n\n"
        "def _private():\n    pass\n",
        "b.py": "import a\nx = a.used()\n",
    }
    assert unreferenced_public_names(modules, {}) == [("a.py", "recursive"), ("a.py", "Lone")]
    assert unreferenced_public_names(modules, {"user.py": "Lone()\n"}) == [("a.py", "recursive")]


def test_every_public_name_is_referenced():
    modules = {path: path.read_text() for path in MODULES}
    users = {path: path.read_text() for path in USERS}
    found = unreferenced_public_names(modules, users)
    assert [(m, name) for m, name in found if name not in UNREFERENCED_KEPT] == []
    # a kept name that gains a caller leaves the keep-list
    assert sorted(UNREFERENCED_KEPT) == sorted(name for _, name in found)
