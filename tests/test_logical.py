"""Logical-operator machinery on bb72, and the basis search and ZX duality
on bb72 and bb144."""

import hashlib
from dataclasses import replace

import pytest

from bbqec import logical
from bbqec.code import BivariatePoly, catalog_code
from bbqec.logical import (
    BasisSearchError,
    build_ancilla_system,
    find_basis_polynomials,
    plan_duality_swaps,
    select_qubit_labels,
    zx_duality_check,
    zx_duality_permutation,
)

# SHA-256 over the one-element lists find_basis_polynomials returns on
# bb72, then bb144: the sorted term indices of f, g and h, then the n
# and m label indices.  It changes with any change to the candidate
# pools, their ranking or the label search, or if the search returns
# more than its first valid basis.
BASIS_SHA = "20b91d07daa59a6c3e883161b6f36331470cf500ada0382b436abede554e0173"
# The same digest over bb288's basis.  bb288's kernel of f*B = 0 has
# dimension 24, too large to sweep whole, so it alone takes the random
# pool of f candidates; the search takes about 1 s.
BASIS288_SHA = "5f511859347b519354ed98390c22cb0ad3efa2325b265119956e1a2e74afa730"
# The fewest depth-first nodes with which the label search succeeds on
# bb72's first (f, h), and the n and m label indices it then returns.
LABEL_NODES = 67
LABELS = ([0, 1, 10, 17, 21, 30], [0, 1, 33, 26, 7, 22])


def _basis_digest(bases) -> str:
    h = hashlib.sha256()
    for basis in bases:
        for poly in (basis.f, basis.g, basis.h):
            h.update(repr(sorted(t.index for t in poly.terms)).encode())
        for labels in (basis.n_labels, basis.m_labels):
            h.update(repr([a.index for a in labels]).encode())
    return h.hexdigest()


def test_basis_golden(bases):
    assert _basis_digest(bases["bb72"] + bases["bb144"]) == BASIS_SHA


def test_basis_golden_bb288():
    code = catalog_code("bb288")
    assert len(code.b_poly.to_matrix().transpose().nullspace_basis()) == 24
    assert _basis_digest(find_basis_polynomials(code)) == BASIS288_SHA


def test_label_search_node_budget(bases, monkeypatch):
    code, basis = catalog_code("bb72"), bases["bb72"][0]
    monkeypatch.setattr(logical, "LABEL_SEARCH_NODES", LABEL_NODES - 1)
    assert select_qubit_labels(code, basis.f, basis.h) is None
    monkeypatch.setattr(logical, "LABEL_SEARCH_NODES", LABEL_NODES)
    n_labels, m_labels = select_qubit_labels(code, basis.f, basis.h)
    assert ([a.index for a in n_labels], [a.index for a in m_labels]) == LABELS

# Component sizes and kinds of the two planar halves of each ancilla
# system's base subgraph, components ordered by their smallest vertex.
PLANES = {
    "X": (([2] * 6 + [1] * 3, ["pair"] * 6 + ["isolated"] * 3),
          ([9, 3, 3], ["path"] * 3)),
    "Z": (([4, 6, 3, 2, 2, 1, 1, 1], ["path"] * 3 + ["pair"] * 2 + ["isolated"] * 3),
          ([4, 4, 4, 2, 3, 1, 1, 1], ["path"] * 3 + ["pair", "path"] + ["isolated"] * 3)),
}


# Qubits each ancilla system adds with 3 layers: 5 copies of its base subgraph.
ADDED_QUBITS = {"X": 75, "Z": 100}


def test_ancilla_plane_components(model):
    for target, (plane_a, plane_b) in PLANES.items():
        system = build_ancilla_system(model.circuit.code, model.basis, target, layers=3)
        assert (system.plane_a.sizes, system.plane_a.kinds) == plane_a, target
        assert (system.plane_b.sizes, system.plane_b.kinds) == plane_b, target
        assert system.added_qubits == ADDED_QUBITS[target], target


def test_plane_components_classify_into_seven_kinds():
    # one hand-built component per kind, each listed from its smallest vertex
    edges = [
        (1, 2),  # pair
        (3, 4), (4, 5),  # path
        (6, 7), (6, 8), (6, 9),  # tree: a star
        (10, 11), (11, 12), (12, 10),  # ring
        (13, 14), (14, 15), (15, 13), (15, 16),  # hairy-ring: a triangle with a tail
        (17, 18), (17, 19), (17, 20), (18, 19), (18, 20), (19, 20),  # other: K4
    ]
    report = logical._classify_components(set(range(21)), edges)
    assert report.sizes == [1, 2, 3, 4, 3, 4, 4]
    assert report.kinds == ["isolated", "pair", "path", "tree", "ring", "hairy-ring", "other"]


def test_basis_search_raises_a_failed_validation(monkeypatch):
    class Marked(BasisSearchError):
        pass

    calls = []

    def failing_validate(self, code):
        calls.append(self)
        raise Marked("marked validation failure")

    monkeypatch.setattr(logical.LogicalBasis, "validate", failing_validate)
    with pytest.raises(Marked, match="marked validation failure"):
        find_basis_polynomials(catalog_code("bb72"))
    assert len(calls) == 1


def test_validate_rejects_a_broken_basis(model):
    code, basis = model.circuit.code, model.basis
    basis.validate(code)
    # X(f + 1, 0) leaves ker HZ, since f B = 0 but (f + 1) B = B
    broken = replace(basis, f=basis.f + BivariatePoly.one(code.l, code.m))
    with pytest.raises(BasisSearchError, match="commute"):
        broken.validate(code)
    # reversed Z labels keep every operator a logical but break the pairing
    unpaired = replace(basis, m_labels=basis.m_labels[::-1])
    with pytest.raises(BasisSearchError, match="pairing defect"):
        unpaired.validate(code)
    # a repeated n label makes two X operators equal, a dependent set
    repeated = replace(basis, n_labels=basis.n_labels[:1] * 2 + basis.n_labels[2:])
    with pytest.raises(BasisSearchError, match="pairing defect"):
        repeated.validate(code)
    # five n labels give ten X operators for k = 12
    short = replace(basis, n_labels=basis.n_labels[:-1])
    with pytest.raises(BasisSearchError, match="operator count != k"):
        short.validate(code)


@pytest.mark.parametrize("name", ["bb72", "bb144"])
def test_zx_duality_holds(name):
    code = catalog_code(name)
    assert zx_duality_check(code)
    perm = zx_duality_permutation(code)
    perm[[0, 1]] = perm[[1, 0]]
    assert not zx_duality_check(code, perm)


# Duality swap plans: per cyclic factor, (name, pair offset, ratios, the
# ratios' costs and their shortest products of term ratios), then the
# chain length and CNOT depth.  bb360's factor r multiplies its ratios by
# the carrier y3 and undoes it with one more swap layer, the ratio y3.
SWAP_PLANS = {
    "bb72": ([("q", 0, ["x2"], [2], [["x4y3", "x4y3"]]),
              ("s", 0, ["y2"], [2], [["x3y4", "x3y4"]])], 4, 84),
    "bb144": ([("p", 1, ["x3"], [2], [["x3y5", "y"]]),
               ("q", 0, ["x4"], [2], [["x2y3", "x2y3"]]),
               ("s", 0, ["y2"], [2], [["y", "y"]])], 6, 132),
    "bb360": ([("q", 0, ["x10"], [2], [["x5y3", "x5y3"]]),
               ("r", 0, ["x12y3", "x6y3", "y3"], [2, 2, 3],
                [["x21y", "x21y2"], ["x5y3", "x"], ["y5", "y5", "y5"]]),
               ("t", 0, ["y2"], [2], [["y", "y"]])], 11, 252),
}
SWAP_CARRIERS = {"bb72": [], "bb144": [], "bb360": [("r", "y3")]}


@pytest.mark.parametrize("name", ["bb72", "bb144", "bb360"])
def test_duality_swap_plan(name):
    plan = plan_duality_swaps(catalog_code(name))
    entries = [(e.factor.name, e.pair_offset, [str(r) for r in e.ratios], e.costs,
                [[str(g) for g in path] for path in e.expressions]) for e in plan.entries]
    assert (entries, plan.chain_length, plan.cnot_depth) == SWAP_PLANS[name]
    assert plan.unreachable == []
    carried = [e for e in plan.entries if e.carrier is not None]  # none on bb72 and bb144
    assert [(e.factor.name, str(e.carrier)) for e in carried] == SWAP_CARRIERS[name]
    assert all((e.carrier * e.carrier).is_one() for e in carried)
