"""The error contract: every exception src/gcs raises is a GcsError or an
OSError, which the CLI reports as one "gcs: error:" line with exit status 2."""

import ast
import builtins
import importlib
import pathlib

from gcs.errors import GcsError

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gcs"

# UnitaryOperator.rows raises what `matrix[j]` raises for a row out of range.
ALLOWED = {("transforms", "UnitaryOperator.rows", "IndexError")}


def resolve(module, node):
    """The object a Name or dotted Attribute node names in module's namespace."""
    if isinstance(node, ast.Attribute):
        return getattr(resolve(module, node.value), node.attr)
    return getattr(module, node.id, None) or getattr(builtins, node.id)


def raises(tree):
    """(qualified name of the enclosing function, raised expression) for
    each raise statement in tree; the expression is None for a bare raise."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                found.append((".".join(scope), child.exc))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + [child.name] if named else scope)

    visit(tree, [])
    return found


def test_every_raise_in_src_is_a_gcs_error_or_an_os_error():
    bad = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("gcs" if path.stem == "__init__" else f"gcs.{path.stem}")
        for where, exc in raises(ast.parse(path.read_text())):
            target = exc.func if isinstance(exc, ast.Call) else exc
            cls = None if target is None else resolve(module, target)
            name = getattr(cls, "__name__", None)
            if (path.stem, where, name) in ALLOWED:
                continue
            if not (isinstance(cls, type) and issubclass(cls, (GcsError, OSError))):
                bad.append(f"{path.name}: {where or '<module>'} raises {name or 'a bare raise'}")
    assert not bad, "\n".join(bad)

