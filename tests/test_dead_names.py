"""Every function, method, class and attribute of the package is read by some code."""

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


def _attributes(tree: ast.Module) -> list[str]:
    """Class.name of every dataclass field, property and attribute set in ``__init__``."""
    out = []
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for member in cls.body:
            if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                out.append(f"{cls.name}.{member.target.id}")
            elif isinstance(member, ast.FunctionDef) and any(
                isinstance(d, ast.Name) and d.id in ("property", "cached_property")
                for d in member.decorator_list
            ):
                out.append(f"{cls.name}.{member.name}")
            elif isinstance(member, ast.FunctionDef) and member.name == "__init__":
                out.extend(
                    f"{cls.name}.{node.attr}"
                    for node in ast.walk(member)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                )
    return out


def _attribute_reads(tree: ast.Module) -> set[str]:
    """Attribute loads (``x.name``) and identifier strings outside ``__slots__``."""
    slots = {
        id(const)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
        for const in ast.walk(node.value)
    }
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in slots):
            out.add(node.value)
    return out


def _constants(tree: ast.Module) -> list[str]:
    """Names bound by a module's top-level assignments."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets.extend(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _loads(tree: ast.Module) -> set[str]:
    """Bare names loaded, attributes loaded and identifier strings."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return names | _attribute_reads(tree)


def _readers() -> list[Path]:
    return [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py"),
            *(ROOT / "perfbench").glob("*.py")]


def test_no_unread_definitions():
    """A name defined in ``src/bbqec`` is read in ``src``, ``tests`` or ``perfbench``.

    Matching is by bare name, so the check cannot see a dead name that is
    also read elsewhere under another owner, such as a method called
    ``copy`` next to numpy's ``ndarray.copy``, or a method sharing its
    name with a used method of another class.
    """
    referenced = set().union(*(_referenced_names(ast.parse(p.read_text())) for p in _readers()))
    unread = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _defined_names(ast.parse(path.read_text()))
        if name not in referenced
    ]
    assert not unread, "defined but never read: " + ", ".join(unread)


def test_no_write_only_attributes():
    """A field, property or ``__init__`` attribute of a package class is read somewhere.

    A read is an attribute load ``x.name`` in ``src``, ``tests`` or
    ``perfbench``, or a string that is the bare name, as ``getattr`` and
    field-name lists use; assignments and the names in ``__slots__`` do
    not count.  Matching is by bare name, not by owner: a read of
    ``Step.kind`` keeps every other attribute named ``kind`` alive, and
    reads that only generated methods make (``__eq__``, ``asdict``) are
    not seen.
    """
    reads = set().union(*(_attribute_reads(ast.parse(p.read_text())) for p in _readers()))
    unread = [
        f"{path.name}: {attr}"
        for path in sorted(PACKAGE.glob("*.py"))
        for attr in _attributes(ast.parse(path.read_text()))
        if attr.split(".")[1] not in reads
    ]
    assert not unread, "written but never read: " + ", ".join(unread)


def test_no_unloaded_constants():
    """A module-level constant of ``src/bbqec`` is loaded in ``src``, ``tests`` or ``perfbench``.

    A load is a bare name read, an attribute load ``module.NAME``, or a
    string that is the bare name, as ``monkeypatch.setattr`` takes; the
    assignment itself does not count.  Matching is by bare name, as in
    the other checks here.
    """
    loads = set().union(*(_loads(ast.parse(p.read_text())) for p in _readers()))
    unloaded = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _constants(ast.parse(path.read_text()))
        if name not in loads
    ]
    assert not unloaded, "assigned but never loaded: " + ", ".join(unloaded)
