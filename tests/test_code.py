import dataclasses

import numpy as np
import pytest

from bbqec.code import (
    CODE_CATALOG,
    BivariatePoly,
    CodeConstructionError,
    Monomial,
    build_code,
    catalog_code,
    _verify_wheels,
    connected_components,
    graph_components,
    subgroup_closure,
    group_pair_ratios,
    thickness_decomposition,
    toric_layout,
    verify_toric_embedding,
)


def test_monomial_arithmetic():
    x = Monomial(1, 0, 12, 6)
    y = Monomial(0, 1, 12, 6)
    assert (x * y).index == 1 * 6 + 1
    assert (x**12).is_one()
    assert (y**3).order() == 2
    assert (x * x.T).is_one()
    assert str(x * y**2) == "xy2"


def test_poly_parse_and_matrix():
    p = BivariatePoly.parse("x3+y+y2", 12, 6)
    assert p.weight == 3
    assert str(p.term(1)) == "x3"
    m = p.to_matrix()
    dense = m.to_dense()
    assert (dense.sum(axis=0) == 3).all() and (dense.sum(axis=1) == 3).all()
    # identity token
    q = BivariatePoly.parse("1+x2+x7", 15, 3)
    assert q.term(1).is_one()


def test_poly_algebra_matches_matrix_algebra():
    rng = np.random.default_rng(0)
    for _ in range(10):
        l, m = rng.integers(2, 7, size=2)
        t1 = [(int(rng.integers(l)), int(rng.integers(m))) for _ in range(3)]
        t2 = [(int(rng.integers(l)), int(rng.integers(m))) for _ in range(3)]
        p = BivariatePoly.from_terms(set(t1), int(l), int(m))
        q = BivariatePoly.from_terms(set(t2), int(l), int(m))
        lhs = (p * q).to_matrix().to_dense()
        rhs = p.to_matrix().mul_mat(q.to_matrix()).to_dense()
        assert np.array_equal(lhs, rhs)
        assert np.array_equal(p.T.to_matrix().to_dense(), p.to_matrix().to_dense().T)


@pytest.mark.parametrize("name,n,k", [
    ("bb72", 72, 12),
    ("bb90", 90, 8),
    ("bb108", 108, 8),
    ("bb144", 144, 12),
    ("bb288", 288, 12),
    ("bb360", 360, 12),
    ("bb756", 756, 16),
])
def test_catalog_parameters(name, n, k):
    code = catalog_code(name)
    assert (code.n, code.k) == (n, k)
    assert code.distance_upper == CODE_CATALOG[name][5]
    with pytest.raises(dataclasses.FrozenInstanceError):  # immutable after construction
        code.distance_upper = None


def test_build_code_rejections():
    with pytest.raises(CodeConstructionError):
        build_code(0, 6, "x3+y+y2", "y3+x+x2")
    with pytest.raises(CodeConstructionError):
        build_code(6, 6, "x3+x3+y", "y3+x+x2")  # duplicate terms
    with pytest.raises(CodeConstructionError):
        build_code(6, 6, "x3+y", "y3+x+x2")  # not 3 terms
    # mixed terms are allowed
    build_code(6, 6, "x3y2+y+y2", "y3+x+x2")


def test_degenerate_k_when_a_equals_b():
    code = build_code(4, 3, "x+y+y2", "x+y+y2")
    amat = code.a_poly.to_matrix()
    assert code.k == 2 * (code.lm - amat.rank())


def test_css_and_rank_invariants_on_catalog():
    for name in CODE_CATALOG:
        code = catalog_code(name)
        assert code.hx.mul_mat(code.hz.transpose()).nnz == 0
        assert code.hx.rank() == code.hz.rank() == code.check_rank
        assert code.k % 2 == 0


def test_tanner_graph_shape():
    code = catalog_code("bb72")
    edges = code.tanner_edges()
    assert len(edges) == 12 * code.lm
    ends = [v for u, w, _tag in edges for v in (u, w)]
    assert (np.bincount(ends, minlength=4 * code.lm) == 6).all()


def test_connected_components_formula_and_split_code():
    assert connected_components(catalog_code("bb144")) == 1
    # replacing x by x^2 in the bb144 polynomials disconnects the code
    split = build_code(12, 6, "x6+y+y2", "y3+x2+x4")
    assert connected_components(split) == 2


def test_connected_components_group_order_vs_bfs_toy():
    # A = B = 1 + x + x2 on Z_l x Z_1: ratio subgroup is <x>, full group
    for l in (3, 5, 8):
        code = build_code(l, 1, "1+x+x2", "1+x+x2")
        sub = subgroup_closure(group_pair_ratios(code), l, 1)
        assert connected_components(code) == code.lm // len(sub)


def test_thickness_wheels_on_catalog():
    for name in ("bb72", "bb90", "bb144"):
        code = catalog_code(name)
        dec = thickness_decomposition(code)
        assert dec.ok, (name, dec.report_a.problems, dec.report_b.problems)
        assert dec.report_a.edge_count == 6 * code.lm
        assert dec.report_b.edge_count == 6 * code.lm
        assert len(dec.edges_a) + len(dec.edges_b) == 12 * code.lm


def test_thickness_half_length_bb144():
    code = catalog_code("bb144")
    dec = thickness_decomposition(code)
    # A3 A2^T = y^2 y^-1 = y of order m = 6
    assert dec.report_a.half_length == 6


def test_wheel_check_sees_two_cycles_joined():
    # swapping the data ends of an X-side and a Z-side cycle edge of one
    # wheel keeps every degree at 3 but splices its two cycles into one
    code = catalog_code("bb72")
    edges = list(thickness_decomposition(code).edges_a)
    wheel = set(graph_components(range(4 * code.lm), edges)[0])
    i = next(n for n, e in enumerate(edges) if e[2] == "A2" and e[0] in wheel)
    j = next(n for n, e in enumerate(edges) if e[2] == "A2T" and e[0] in wheel)
    (u1, v1, t1), (u2, v2, t2) = edges[i], edges[j]
    edges[i], edges[j] = (u1, v2, t1), (u2, v1, t2)
    report = _verify_wheels(code, edges, (code.a_poly.term(3), code.a_poly.term(2)), "A")
    assert not report.ok
    assert report.problems == ["expected two cycles of length 12, got [24]"]


def half_a_less_one_edge(code):
    return thickness_decomposition(code).edges_a[:-1]


def term_edges(code, term):
    return [e for e in code.tanner_edges() if e[2].rstrip("T") == term]


def half_a_plus_b1(code):
    # the B1 edges join three of bb72's wheels into one component
    return thickness_decomposition(code).edges_a + term_edges(code, "B1")


def half_a_with_b1_for_a3(code):
    # every degree stays 3, but B1 edges are radial, not cycle edges
    kept = [e for e in thickness_decomposition(code).edges_a if e[2].rstrip("T") != "A3"]
    return kept + term_edges(code, "B1")


@pytest.mark.parametrize("mutant, problem", [
    (half_a_less_one_edge, "vertex of degree != 3"),
    (half_a_plus_b1, "component size 72 != 4p = 24"),
    (half_a_with_b1_for_a3, "cycle-edge degree != 2 inside a component"),
])
def test_wheel_check_rejects_a_wrong_half(mutant, problem):
    code = catalog_code("bb72")
    edges = mutant(code)
    report = _verify_wheels(code, edges, (code.a_poly.term(3), code.a_poly.term(2)), "A")
    assert not report.ok
    assert problem in report.problems


def test_toric_embedding_rejects_ratios_that_miss_the_group():
    # with j = i the first ratio is 1, so the grid covers only <B_g B_h^T>
    code = catalog_code("bb72")
    layout = toric_layout(code)
    assert verify_toric_embedding(code, layout)
    with pytest.raises(CodeConstructionError, match="layout ratios do not enumerate the group"):
        verify_toric_embedding(code, dataclasses.replace(layout, j=layout.i))


def test_toric_layout_found_and_verified():
    for name in CODE_CATALOG:
        code = catalog_code(name)
        layout = toric_layout(code)
        assert layout is not None
        assert layout.mu * layout.lam == code.lm
        assert verify_toric_embedding(code, layout)
        assert {layout.mu, layout.lam} == {code.l, code.m}


def test_toric_layout_bb90_published_tuple_is_valid():
    code = catalog_code("bb90")
    sa = code.a_poly.term(2) * code.a_poly.term(3).T
    sb = code.b_poly.term(1) * code.b_poly.term(3).T
    assert sa.order() * sb.order() == code.lm
    assert len(subgroup_closure([sa, sb], code.l, code.m)) == code.lm


def test_toric_layout_absent_for_known_counterexample():
    code = build_code(28, 14, "x26+y6+y8", "y7+x9+x20")
    assert connected_components(code) == 1
    assert toric_layout(code) is None


def test_toric_layout_reduced_orders_case():
    code = build_code(18, 12, "x+y11+y3", "y2+x15+x")
    layout = toric_layout(code)
    assert layout is not None
    assert {layout.mu, layout.lam} == {36, 6}


def test_pauli_checks_maps_each_type_and_rejects_others():
    code = catalog_code("bb72")
    assert code.pauli_checks("X") == (code.hz, code.hx)
    assert code.pauli_checks("Z") == (code.hx, code.hz)
    for bad in ("Y", "x", ""):
        with pytest.raises(ValueError):
            code.pauli_checks(bad)


def test_random_small_codes_structural_suite():
    """Cross-check the lemma formulas on a population of random codes."""
    rng = np.random.default_rng(2024)
    built = 0
    while built < 50:
        l = int(rng.integers(2, 9))
        m = int(rng.integers(1, 9))
        if l * m > 72 or l * m < 3:
            continue
        terms_a = {(int(rng.integers(l)), int(rng.integers(m))) for _ in range(3)}
        terms_b = {(int(rng.integers(l)), int(rng.integers(m))) for _ in range(3)}
        if len(terms_a) != 3 or len(terms_b) != 3:
            continue
        code = build_code(l, m, BivariatePoly.from_terms(terms_a, l, m),
                          BivariatePoly.from_terms(terms_b, l, m))
        assert code.hx.mul_mat(code.hz.transpose()).nnz == 0
        assert code.hx.rank() == code.hz.rank() == code.check_rank
        # group-order component count against BFS happens inside
        connected_components(code)
        dec = thickness_decomposition(code)
        assert dec.ok, (code, dec.report_a.problems, dec.report_b.problems)
        layout = toric_layout(code)
        if layout is not None:
            assert verify_toric_embedding(code, layout)
        built += 1
