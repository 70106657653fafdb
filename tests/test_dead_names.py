"""Every function, method and class of the package is read by some code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bbqec"


def _defined_names(tree: ast.Module) -> list[str]:
    """Top-level and class-level def/class names, dunders left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, defs):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(member.name for member in node.body if isinstance(member, defs))
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads: variables, attributes, and identifier strings.

    A string that is a bare identifier counts, since a caller may look a
    name up with getattr.  Import lines, definitions, comments and
    docstrings do not count.
    """
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def test_no_unread_definitions():
    """A name defined in ``src/bbqec`` is read in ``src``, ``tests`` or ``perfbench``.

    Matching is by bare name, so the check cannot see a dead name that is
    also read elsewhere under another owner, such as a method called
    ``copy`` next to numpy's ``ndarray.copy``, or a method sharing its
    name with a used method of another class.
    """
    readers = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    referenced = set().union(*(_referenced_names(ast.parse(p.read_text())) for p in readers))
    unread = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _defined_names(ast.parse(path.read_text()))
        if name not in referenced
    ]
    assert not unread, "defined but never read: " + ", ".join(unread)
