"""Every function, method, class and attribute of the package is read by some code,
and the names only the tests read are the listed checks of the paper's claims, or
attributes kept for a stated use."""

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


# Package functions that only the tests call, each a check of a claim of
# the paper (or, for from_terms, a test constructor).  A name read only by
# tests that is not one of these is API without a caller.
TEST_ONLY = {
    "verify_sm_circuit": "the depth-8 cycle measures every check and spares the logicals",
    "enumerate_schedules": "the count of valid depth-8 schedules (936 on bb144)",
    "build_automorphism_circuit": "the automorphism gadgets are move circuits",
    "automorphism_data_permutation": "the permutation an automorphism gadget realizes",
    "verify_automorphism": "a shift preserves both check matrices and the logical action",
    "connected_components": "the Tanner-graph component count, formula against traversal",
    "thickness_decomposition": "the Tanner graph has thickness 2: two wheel-shaped halves",
    "toric_layout": "the toric layout certificate of the Tanner graph",
    "verify_toric_embedding": "the toric layout maps its four term edges onto the grid",
    "zx_duality_check": "the ZX duality swaps the X and Z checks",
    "plan_duality_swaps": "the swap chain that realizes the ZX duality",
    "build_ancilla_system": "the ancilla system that measures one logical operator",
    "distance_upper_bound": "the code distances of the catalog",
    "dump_side_model": "the text form of a detector model that the goldens hash",
    "from_terms": "builds random test codes; deleting it would move its code into the tests",
}


def test_test_only_names_are_paper_checks():
    """The package names that ``tests`` read and ``src`` and ``perfbench`` do not are ``TEST_ONLY``.

    This file's own strings do not count as reads, so a listed name
    that no test calls any more fails the check as well.
    """
    def reads(paths) -> set[str]:
        return set().union(*(_referenced_names(ast.parse(p.read_text())) for p in paths))

    in_tests = reads(p for p in (ROOT / "tests").glob("*.py") if p.name != Path(__file__).name)
    elsewhere = reads(p for p in _readers() if p.parent != ROOT / "tests")
    test_only = {
        name
        for path in PACKAGE.glob("*.py")
        for name in _defined_names(ast.parse(path.read_text()))
        if name in in_tests and name not in elsewhere
    }
    assert test_only == set(TEST_ONLY)


# Attributes that only the tests read: every attribute of a class that
# reports a paper check, and single attributes kept for a stated use.  An
# attribute read only by tests that is not one of these is state the
# package computes for nobody.
TEST_ONLY_ATTRIBUTES = {
    "WheelReport": "the wheel structure of one planar half of the Tanner graph",
    "ThicknessDecomposition": "the Tanner graph's thickness-2 split into two planar halves",
    "RatioPlanEntry": "the swaps that invert one cyclic factor, a step of the ZX duality",
    "DualitySwapPlan": "the swap chain that realizes the ZX duality",
    "PlaneComponentReport": "the component kinds of an ancilla system's planar halves",
    "AncillaSystem": "the ancilla system that measures one logical operator",
    "SampleBatch.faults": "each shot's fault ids, for failure forensics (ROADMAP item 3)",
    "SampleBatch.fault_shots": "the shot of each fault id, for failure forensics",
}


def test_test_only_attributes_are_listed():
    """The attributes that ``tests`` read and ``src`` and ``perfbench`` do not are listed.

    An attribute is listed by its ``Class.name`` or by its class.  This
    file's own strings do not count as reads, so a listed attribute, or a
    listed class none of whose attributes a test reads any more, fails
    the check as well.  Matching is by bare name, as in the other checks.
    """
    def reads(paths) -> set[str]:
        return set().union(*(_attribute_reads(ast.parse(p.read_text())) for p in paths))

    in_tests = reads(p for p in (ROOT / "tests").glob("*.py") if p.name != Path(__file__).name)
    elsewhere = reads(p for p in _readers() if p.parent != ROOT / "tests")
    test_only = {
        attr
        for path in PACKAGE.glob("*.py")
        for attr in _attributes(ast.parse(path.read_text()))
        if attr.split(".")[1] in in_tests and attr.split(".")[1] not in elsewhere
    }
    unlisted = {attr for attr in test_only
                if attr not in TEST_ONLY_ATTRIBUTES and attr.split(".")[0] not in TEST_ONLY_ATTRIBUTES}
    assert not unlisted, "read only by tests, unlisted: " + ", ".join(sorted(unlisted))
    covered = test_only | {attr.split(".")[0] for attr in test_only}
    assert set(TEST_ONLY_ATTRIBUTES) <= covered
