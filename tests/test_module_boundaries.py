"""No module under ``src/repro`` reaches into another module's private names.

A leading underscore marks a name as its defining module's own, free to
change without notice.  These tests parse every module of the package
and fail on ``from repro.x import _name`` (relative imports included)
and on ``alias._name`` -- or ``alias.attr._name`` -- where ``alias`` was
bound by an import from ``repro``.  Dunder names such as ``__version__``
are exempt.  A seam that other modules must patch gets a public name
instead, as ``repro.durable.fsync`` does.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _is_private(name):
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


def _imports_from_repro(node):
    if node.level:  # relative: another module of the package
        return True
    return node.module == "repro" or node.module.startswith("repro.")


def private_accesses(tree):
    """Sorted ``(line, source)`` of each cross-module private access."""
    hits = []
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _imports_from_repro(node):
            for alias in node.names:
                if _is_private(alias.name):
                    hits.append((node.lineno, f"import {alias.name}"))
                aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    aliases.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _is_private(node.attr)):
            continue
        root = node.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in aliases:
            hits.append((node.lineno, ast.unparse(node)))
    return sorted(hits)


def test_scanner_flags_each_form():
    source = "\n".join([
        "import os",
        "import repro.obs.trace as obs_trace",
        "from repro import durable, __version__",
        "from repro.sim.runner import _helper",
        "from . import _sibling",
        "from .metrics import Registry",
        "durable._fsync",
        "obs_trace.Tracer._span",
        "Registry._cache",
        "os._exit",
        "durable.__name__",
        "self._state",
    ])
    assert private_accesses(ast.parse(source)) == [
        (4, "import _helper"),
        (5, "import _sibling"),
        (7, "durable._fsync"),
        (8, "obs_trace.Tracer._span"),
        (9, "Registry._cache"),
    ]


def test_no_module_uses_another_modules_private_names():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {text}"
        for path in modules
        for line, text in private_accesses(
            ast.parse(path.read_text(), str(path))
        )
    ]
    assert found == []
