"""Every module-level import in ``smoothdyn``, ``tests/`` and
``perfbench/`` is used by its module, ``smoothdyn`` imports in function
bodies only what it must load lazily, every public module-level ``def``
or ``class`` and every public method of a public class is used
somewhere, and every defaulted parameter is passed somewhere.

Four ``ast`` scans.  Imports: each name a top-level ``import`` or
``from ... import`` binds must appear as a ``Name`` (which also covers the
base of every ``Attribute`` chain such as ``np.random``) somewhere in the
module.  Function imports: each ``import`` inside a ``def`` body of a
``smoothdyn`` module must be on a short keep-list.  Public names: each must appear as a ``Name`` or an attribute
outside its own body, in some ``smoothdyn`` module, in the benchmark's
workload code or in the acceptance suite; the unit tests do not count.
Parameters: each defaulted parameter of a ``def`` or method must be
passed, by keyword or by position, by some call of that name in the same
files.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smoothdyn

MODULES = sorted(Path(smoothdyn.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parent.parent
# every file whose imports are scanned; the scan only reads them
SCANNED = MODULES + sorted(REPO.glob("tests/*.py")) + sorted(REPO.glob("perfbench/*.py"))
USERS = [REPO / "perfbench" / f for f in ("run.py", "workloads.py", "tracing.py")] + [
    REPO / "tests" / "test_acceptance.py"
]

# Public names that nothing calls yet, each kept for a planned use.
UNREFERENCED_KEPT = {
    # the model-hierarchy experiment (ROADMAP)
    "multiphase_embed",
    "p_prime",
    # simulate's adversarial start, --h0 (ROADMAP)
    "smooth_initial",
    # the run manifest's replayable event-log dump (ROADMAP)
    "write_event_log",
    # the edge-list and OuMv file formats at the input boundary
    "read_edge_list",
    "write_edge_list",
    "read_oumv_instance",
}

# Imports inside a smoothdyn function body, as (module, function, imported
# module), each kept there for a reason.
LAZY_IMPORTS_KEPT = {
    # scipy.stats takes about a second to load, and only the histogram
    # check needs it (test_cli_import_leaves_scipy_stats_unloaded)
    ("reduction.py", "_chi2_pvalue", "scipy"),
}

# Defaulted parameters that no counted call passes, each kept for a use.
UNPASSED_KEPT = {
    # the CLI tests' entry point
    ("main", "argv"),
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


def function_imports(source: str) -> list:
    """(line, function, module) of each import inside a ``def`` body, the
    innermost ``def`` named and a relative module written with its dots."""
    found = []
    stack = [(ast.parse(source), None)]
    while stack:
        node, fn = stack.pop()
        if isinstance(node, ast.Import) and fn is not None:
            found += [(node.lineno, fn, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and fn is not None:
            found.append((node.lineno, fn, "." * node.level + (node.module or "")))
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))
    return sorted(found)


def unreferenced_public_names(modules: dict, users: dict) -> list:
    """(module, name) of each public top-level def/class in ``modules``, and
    (module, "Class.method") of each public method of a public class there,
    that no ``Name`` or attribute outside its own body, in ``modules`` or
    ``users`` (both path -> source), refers to."""
    trees = {path: ast.parse(source) for path, source in {**modules, **users}.items()}
    unreferenced = []
    for path in modules:
        for name, node in _public_defs(trees[path]):
            if not any(_refers(tree, node) for tree in trees.values()):
                unreferenced.append((Path(path).name, name))
    return unreferenced


def _public_defs(tree: ast.Module):
    """(name, node) of each public top-level def or class and each public
    method of a public class, the method named ``Class.method``."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        for method in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                yield f"{node.name}.{method.name}", method


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


def unpassed_parameters(modules: dict, users: dict) -> list:
    """(module, def, parameter) of each defaulted parameter of a ``def`` or
    method in ``modules`` that no call in ``modules`` or ``users`` (both
    path -> source) passes.  A call matches by the called name, the class
    name for ``__init__``; a ``*args`` or ``**kwargs`` argument passes
    every parameter it could reach."""
    trees = {path: ast.parse(source) for path, source in {**modules, **users}.items()}
    positions, keywords = {}, {}  # called name -> most positions / keyword names passed
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            count = float("inf") if starred else len(call.args)
            positions[name] = max(positions.get(name, 0), count)
            # a **kwargs argument shows up as the keyword None
            keywords.setdefault(name, set()).update(kw.arg for kw in call.keywords)
    unpassed = []
    for path in modules:
        for owner in ast.walk(trees[path]):
            if not isinstance(owner, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                continue
            for fn in (node for node in owner.body if isinstance(node, ast.FunctionDef)):
                method = isinstance(owner, ast.ClassDef)
                name = owner.name if method and fn.name == "__init__" else fn.name
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                args = fn.args.posonlyargs + fn.args.args
                args = args[1:] if method and not static else args
                first = len(args) - len(fn.args.defaults)
                defaulted = [(i, args[i].arg) for i in range(first, len(args))]
                defaulted += [
                    (None, arg.arg)
                    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                    if default is not None
                ]
                passed = keywords.get(name, set())
                for i, param in defaulted:
                    by_position = i is not None and positions.get(name, 0) > i
                    if not (by_position or param in passed or None in passed):
                        unpassed.append((Path(path).name, fn.name, param))
    return unpassed


def test_scan_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom typing import List, Tuple\nx: List = np.zeros(1)\n"
    assert unused_imports(source) == [(1, "os"), (3, "Tuple")]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: p.name if p in MODULES else str(p.relative_to(REPO)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_function_imports():
    source = (
        "import os\nfrom . import rng\n\ndef f():\n    import json, csv\n"
        "    def g():\n        from .graph import pair\n    return json\n\n"
        "class C:\n    from typing import List\n\n    def m(self):\n"
        "        if os:\n            from scipy import stats\n"
    )
    assert function_imports(source) == [
        (5, "f", "csv"), (5, "f", "json"), (7, "g", ".graph"), (15, "m", "scipy")
    ]


def test_no_imports_in_function_bodies():
    found = {
        (path.name, fn, module)
        for path in MODULES
        for _, fn, module in function_imports(path.read_text())
    }
    # a kept import that leaves its function also leaves the keep-list
    assert found == LAZY_IMPORTS_KEPT


def test_scan_finds_unreferenced_public_names():
    modules = {
        "a.py": "def used():\n    return helper()\n\ndef helper():\n    return 1\n\n"
        "def recursive(k):\n    return recursive(k - 1)\n\nclass Lone:\n    pass\n\n"
        "def _private():\n    pass\n\n"
        "class Used:\n    def called(self):\n        pass\n\n"
        "    def selfish(self):\n        return self.selfish()\n\n"
        "    def _helper(self):\n        pass\n\n"
        "class _Hidden:\n    def method(self):\n        pass\n",
        "b.py": "import a\nx = a.used()\na.Used().called()\n",
    }
    assert unreferenced_public_names(modules, {}) == [
        ("a.py", "recursive"), ("a.py", "Lone"), ("a.py", "Used.selfish")
    ]
    users = {"user.py": "Lone()\nobj.selfish()\n"}
    assert unreferenced_public_names(modules, users) == [("a.py", "recursive")]


def test_every_public_name_is_referenced():
    modules = {path: path.read_text() for path in MODULES}
    users = {path: path.read_text() for path in USERS}
    found = unreferenced_public_names(modules, users)
    assert [(m, name) for m, name in found if name not in UNREFERENCED_KEPT] == []
    # a kept name that gains a caller leaves the keep-list
    assert sorted(UNREFERENCED_KEPT) == sorted(name for _, name in found)


def test_scan_finds_unpassed_parameters():
    modules = {
        "a.py": "def f(x, y=1, z=2, *, w=3):\n    pass\n\n"
        "class C:\n    def __init__(self, k=0):\n        pass\n\n"
        "    def m(self, j=0):\n        pass\n\n"
        "f(0, 5)\nC().m(1)\n",
    }
    assert unpassed_parameters(modules, {}) == [
        ("a.py", "f", "z"), ("a.py", "f", "w"), ("a.py", "__init__", "k")
    ]
    users = {"user.py": "f(0, w=4)\nC(k=1)\nf(*args)\n"}
    assert unpassed_parameters(modules, users) == []


def test_every_defaulted_parameter_is_passed():
    modules = {path: path.read_text() for path in MODULES}
    users = {path: path.read_text() for path in USERS}
    found = {(fn, param) for _, fn, param in unpassed_parameters(modules, users)}
    assert found - UNPASSED_KEPT == set()
    # a kept parameter that gains a caller leaves the keep-list
    assert UNPASSED_KEPT == found


def test_cli_import_leaves_scipy_stats_unloaded():
    """scipy.stats takes about a second to load; only the histogram check
    imports it, when it runs."""
    src = str(Path(smoothdyn.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, smoothdyn.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
