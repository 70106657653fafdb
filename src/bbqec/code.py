"""Bivariate bicycle code construction and structural checks.

A code is defined over the abelian group Z_l x Z_m by two three-term
polynomials A and B in the commuting shift monomials x and y.  Check
matrices are HX = [A | B] and HZ = [B^T | A^T]; data qubits split into
a left and a right block of l*m qubits each.

Group (and matrix-index) convention: the monomial x^a y^b corresponds
to index a*m + b, x shifts a, y shifts b.  As a matrix, a polynomial P
has a 1 at (row i, col j) exactly when monomial_j = monomial_i * t for
some term t of P.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .gf2 import BinMatrix, BinVector


@dataclass(frozen=True, order=True)
class Monomial:
    """x^a y^b over Z_l x Z_m, exponents kept reduced."""

    a: int
    b: int
    l: int
    m: int

    def __post_init__(self):
        if self.l <= 0 or self.m <= 0:
            raise ValueError("group dimensions must be positive")
        object.__setattr__(self, "a", self.a % self.l)
        object.__setattr__(self, "b", self.b % self.m)

    @classmethod
    def one(cls, l: int, m: int) -> "Monomial":
        return cls(0, 0, l, m)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if (self.l, self.m) != (other.l, other.m):
            raise ValueError("mixed groups")
        return Monomial(self.a + other.a, self.b + other.b, self.l, self.m)

    def __pow__(self, e: int) -> "Monomial":
        return Monomial(self.a * e, self.b * e, self.l, self.m)

    @property
    def T(self) -> "Monomial":
        """Inverse element (transpose of the permutation matrix)."""
        return Monomial(-self.a, -self.b, self.l, self.m)

    @property
    def index(self) -> int:
        return self.a * self.m + self.b

    def order(self) -> int:
        return math.lcm(self.l // math.gcd(self.a, self.l), self.m // math.gcd(self.b, self.m))

    def is_one(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        if self.is_one():
            return "1"
        out = ""
        if self.a:
            out += f"x{self.a}" if self.a != 1 else "x"
        if self.b:
            out += f"y{self.b}" if self.b != 1 else "y"
        return out


_TERM_RE = re.compile(r"^(?:1|(?:x(\d*))?(?:y(\d*))?)$")


@dataclass(frozen=True, eq=False)
class BivariatePoly:
    """A sum of distinct monomials over Z_l x Z_m, written order kept.

    Term order matters: the published circuit schedules and the planar
    decomposition refer to terms by their position (A1, A2, A3 reading
    left to right), so we never silently re-sort.  Equality, however,
    is algebraic (order-insensitive).
    """

    terms: tuple[Monomial, ...]
    l: int
    m: int

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BivariatePoly)
            and (self.l, self.m) == (other.l, other.m)
            and set(self.terms) == set(other.terms)
        )

    def __post_init__(self):
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("duplicate terms in polynomial")
        for t in self.terms:
            if (t.l, t.m) != (self.l, self.m):
                raise ValueError("term group mismatch")

    @classmethod
    def parse(cls, text: str, l: int, m: int) -> "BivariatePoly":
        """Parse e.g. 'x3+y1+y2' (also accepts 'y', 'x2y3', '1')."""
        terms = []
        for raw in text.replace(" ", "").split("+"):
            mobj = _TERM_RE.match(raw)
            if not mobj or raw == "":
                raise ValueError(f"bad monomial token {raw!r}")
            if raw == "1":
                terms.append(Monomial.one(l, m))
                continue
            ax, by = mobj.groups()
            a = 0 if ax is None else int(ax) if ax != "" else 1
            b = 0 if by is None else int(by) if by != "" else 1
            terms.append(Monomial(a, b, l, m))
        return cls(tuple(terms), l, m)

    @classmethod
    def from_terms(cls, terms, l: int, m: int) -> "BivariatePoly":
        return cls(tuple(Monomial(a, b, l, m) for a, b in terms), l, m)

    @classmethod
    def zero(cls, l: int, m: int) -> "BivariatePoly":
        return cls((), l, m)

    @classmethod
    def one(cls, l: int, m: int) -> "BivariatePoly":
        return cls((Monomial.one(l, m),), l, m)

    def term(self, i: int) -> Monomial:
        """1-based term access matching the A1/A2/A3 naming."""
        return self.terms[i - 1]

    @property
    def weight(self) -> int:
        return len(self.terms)

    @property
    def T(self) -> "BivariatePoly":
        return BivariatePoly(tuple(t.T for t in self.terms), self.l, self.m)

    def shift(self, s: Monomial) -> "BivariatePoly":
        return BivariatePoly(tuple(s * t for t in self.terms), self.l, self.m)

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        """Mod-2 sum: symmetric difference of term sets (order by index)."""
        sym = set(self.terms) ^ set(other.terms)
        return BivariatePoly(tuple(sorted(sym, key=lambda t: t.index)), self.l, self.m)

    def __mul__(self, other) -> "BivariatePoly":
        if isinstance(other, Monomial):
            return self.shift(other)
        acc: set[Monomial] = set()
        for s in self.terms:
            for t in other.terms:
                acc ^= {s * t}
        return BivariatePoly(tuple(sorted(acc, key=lambda t: t.index)), self.l, self.m)

    def to_matrix(self) -> BinMatrix:
        """The l*m x l*m permutation-sum matrix of this polynomial."""
        n = self.l * self.m
        dense = np.zeros((n, n), dtype=np.uint8)
        idx = np.arange(n)
        table = translation_table(self.l, self.m)
        for t in self.terms:
            dense[idx, table[t.index]] ^= 1
        return BinMatrix.from_dense(dense)

    def to_vector(self) -> BinVector:
        """Coefficient vector over the group element indexing."""
        return BinVector.from_support(self.l * self.m, [t.index for t in self.terms])

    @classmethod
    def from_vector(cls, v: BinVector, l: int, m: int) -> "BivariatePoly":
        return cls(tuple(Monomial(int(i) // m, int(i) % m, l, m) for i in v.support), l, m)


def monomial_from_index(i: int, l: int, m: int) -> Monomial:
    return Monomial(i // m, i % m, l, m)


@lru_cache(maxsize=32)
def translation_table(l: int, m: int) -> np.ndarray:
    """T[t, i] = index of monomial_i * monomial_t, for all pairs.

    Row t is the translation by monomial_t as an index map.  The table
    is cached and shared, so it is read-only.
    """
    lm = l * m
    ta, tb = np.divmod(np.arange(lm), m)
    ia, ib = np.divmod(np.arange(lm), m)
    table = (((ia[None, :] + ta[:, None]) % l) * m + (ib[None, :] + tb[:, None]) % m).astype(
        np.int64
    )
    table.flags.writeable = False
    return table


# Register order of Tanner-graph vertices and circuit qubits: L block,
# R block, X checks, Z checks.
REGISTERS = ("L", "R", "X", "Z")

# Edge tags of the Tanner graph's planar half "A"; the rest form half "B".
HALF_A_TAGS = frozenset({"A2", "A3", "B3", "A2T", "A3T", "B3T"})


def graph_components(vertices, edges) -> list[list[int]]:
    """Connected components of the graph on ``vertices`` with ``edges``.

    Edges are (u, v, ...) tuples whose entries after the two endpoints
    are ignored.  Components come ordered by their smallest vertex, each
    listing its vertices in depth-first order from that vertex.
    """
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v, *_ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[int] = set()
    components = []
    for start in sorted(adj):
        if start in seen:
            continue
        seen.add(start)
        comp, stack = [], [start]
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        components.append(comp)
    return components


class CodeConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class BBCode:
    """A bivariate bicycle code QC(A, B) with cached analyses.

    Immutable after construction; every derived analysis is read-only.
    Use :func:`build_code` rather than the bare constructor so that all
    structural invariants get checked.
    """

    l: int
    m: int
    a_poly: BivariatePoly
    b_poly: BivariatePoly
    hx: BinMatrix = field(repr=False)
    hz: BinMatrix = field(repr=False)
    k: int
    distance_upper: int | None = None

    @property
    def lm(self) -> int:
        return self.l * self.m

    @property
    def n(self) -> int:
        return 2 * self.l * self.m

    @property
    def check_rank(self) -> int:
        """rank(HX) = rank(HZ) = (n - k) / 2, as :func:`build_code` checks."""
        return (self.n - self.k) // 2

    def monomials(self) -> list[Monomial]:
        return [monomial_from_index(i, self.l, self.m) for i in range(self.lm)]

    # -- Tanner graph ---------------------------------------------------

    def tanner_edges(self) -> list[tuple[int, int, str]]:
        """(check vertex, data vertex, generating term) of every Tanner edge.

        Vertices are (register, index) pairs flattened in REGISTERS order:
        L: [0, lm), R: [lm, 2lm), X: [2lm, 3lm), Z: [3lm, 4lm).
        """
        edges = []
        lm = self.lm
        table = translation_table(self.l, self.m)
        for p in (1, 2, 3):
            a_of = table[self.a_poly.term(p).index]
            b_of = table[self.b_poly.term(p).index]
            for i in range(lm):
                # X check i touches L qubit A_p(i) and R qubit B_p(i)
                edges.append((2 * lm + i, int(a_of[i]), f"A{p}"))
                edges.append((2 * lm + i, lm + int(b_of[i]), f"B{p}"))
                # Z check B_p(i) touches L qubit i; Z check A_p(i) touches R qubit i
                edges.append((3 * lm + int(b_of[i]), i, f"B{p}T"))
                edges.append((3 * lm + int(a_of[i]), lm + i, f"A{p}T"))
        return edges

    # -- check matrices by Pauli type -------------------------------------

    def pauli_checks(self, pauli: str) -> tuple[BinMatrix, BinMatrix]:
        """(kernel checks, stabilizer rows) of a Pauli type.

        An X-type operator commutes with the stabilizers when it lies in
        ker HZ and is a stabilizer when it lies in rs(HX); mirrored for
        Z-type.

        Raises:
            ValueError: a pauli other than "X" or "Z".
        """
        if pauli == "X":
            return self.hz, self.hx
        if pauli == "Z":
            return self.hx, self.hz
        raise ValueError("pauli must be 'X' or 'Z'")


def build_code(
    l: int,
    m: int,
    a_poly: BivariatePoly | str,
    b_poly: BivariatePoly | str,
) -> BBCode:
    """Construct a bivariate bicycle code and verify its invariants.

    Args:
        l, m: cyclic dimensions (both must be positive).
        a_poly, b_poly: three-term polynomials (or their string form).

    Raises:
        CodeConstructionError: bad dimensions, duplicate or non-3 terms,
            or an internal invariant violation (which would be a bug).
    """
    if l <= 0 or m <= 0:
        raise CodeConstructionError("l and m must be positive")
    try:
        if isinstance(a_poly, str):
            a_poly = BivariatePoly.parse(a_poly, l, m)
        if isinstance(b_poly, str):
            b_poly = BivariatePoly.parse(b_poly, l, m)
    except ValueError as exc:
        raise CodeConstructionError(str(exc)) from exc
    for name, poly in (("A", a_poly), ("B", b_poly)):
        if (poly.l, poly.m) != (l, m):
            raise CodeConstructionError(f"{name} is defined over the wrong group")
        if poly.weight != 3:
            raise CodeConstructionError(f"{name} must have exactly 3 distinct terms")

    amat, bmat = a_poly.to_matrix(), b_poly.to_matrix()
    hx = amat.hstack(bmat)
    hz = bmat.transpose().hstack(amat.transpose())

    # CSS condition and rank symmetry
    if hx.mul_mat(hz.transpose()).nnz != 0:
        raise CodeConstructionError("HX HZ^T != 0; construction bug")
    rx, rz = hx.rank(), hz.rank()
    if rx != rz:
        raise CodeConstructionError("rank(HX) != rank(HZ); construction bug")
    k = _logical_count(amat, bmat, rz)
    return BBCode(l=l, m=m, a_poly=a_poly, b_poly=b_poly, hx=hx, hz=hz, k=k)


def _logical_count(amat: BinMatrix, bmat: BinMatrix, rank_hz: int) -> int:
    """Logical qubit count, computed two independent ways.

    Both n - 2*rank(HZ) and 2*dim(ker A ∩ ker B) are evaluated, with
    n = 2*lm; a mismatch is a fatal invariant violation.
    """
    lm = amat.rows
    k_rank = 2 * lm - 2 * rank_hz
    k_kernel = 2 * (lm - amat.stack(bmat).rank())
    if k_rank != k_kernel:
        raise CodeConstructionError(f"logical-count formulas disagree: {k_rank} vs {k_kernel}")
    return k_rank


def maps_rows_onto(h: BinMatrix, h_prime: BinMatrix, perm: np.ndarray) -> bool:
    """Does moving column q to column perm[q] turn the rows of h into those of h_prime?

    Rows are compared as sets, so the rows may come out in any order.
    """
    dense = h.to_dense()
    moved = np.zeros_like(dense)
    moved[:, perm] = dense
    return {row.tobytes() for row in moved} == {row.tobytes() for row in h_prime.to_dense()}


# -- Lemma machinery ------------------------------------------------------


def group_pair_ratios(code: BBCode) -> list[Monomial]:
    """All ratios A_i A_j^T and B_i B_j^T for i != j (with repeats removed)."""
    out: list[Monomial] = []
    seen = set()
    for poly in (code.a_poly, code.b_poly):
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                r = poly.term(i) * poly.term(j).T
                if r not in seen:
                    seen.add(r)
                    out.append(r)
    return out


def generator_paths(
    generators: list[Monomial], l: int, m: int
) -> tuple[dict[Monomial, int], dict[Monomial, list[Monomial]]]:
    """Breadth-first search over products of the generators from 1.

    Returns, for each reachable element of Z_l x Z_m, the fewest
    generators whose product it is, and one such product (the first
    found, generators tried in the given order).
    """
    start = Monomial.one(l, m)
    dist = {start: 0}
    path: dict[Monomial, list[Monomial]] = {start: []}
    frontier = [start]
    while frontier:
        nxt = []
        for g in frontier:
            for s in generators:
                h = g * s
                if h not in dist:
                    dist[h] = dist[g] + 1
                    path[h] = path[g] + [s]
                    nxt.append(h)
        frontier = nxt
    return dist, path


def subgroup_closure(generators: list[Monomial], l: int, m: int) -> set[Monomial]:
    """The subgroup of Z_l x Z_m generated by the given elements."""
    return set(generator_paths(generators, l, m)[0])


def connected_components(code: BBCode) -> int:
    """Number of Tanner graph components, via the subgroup-order formula.

    The group-theoretic count lm / |<S>| (S the set of term ratios) is
    cross-checked against a direct graph traversal; disagreement is a
    fatal invariant violation.
    """
    sub = subgroup_closure(group_pair_ratios(code), code.l, code.m)
    by_formula = code.lm // len(sub)
    by_bfs = len(graph_components(range(4 * code.lm), code.tanner_edges()))
    if by_formula != by_bfs:
        raise CodeConstructionError(
            f"component count mismatch: formula {by_formula}, traversal {by_bfs}"
        )
    return by_formula


@dataclass
class WheelReport:
    """Structure report for one planar half of the Tanner graph."""

    half_length: int  # p: number of checks per cycle
    edge_count: int
    ok: bool
    problems: list[str] = field(default_factory=list)


@dataclass
class ThicknessDecomposition:
    edges_a: list[tuple[int, int, str]]
    edges_b: list[tuple[int, int, str]]
    report_a: WheelReport
    report_b: WheelReport

    @property
    def ok(self) -> bool:
        return self.report_a.ok and self.report_b.ok


def _verify_wheels(
    code: BBCode,
    edges: list[tuple[int, int, str]],
    outer_terms: tuple[Monomial, Monomial],
    name: str,
) -> WheelReport:
    """Check every component of a planar half is a wheel.

    A wheel is two equal-length alternating check/data cycles (one on
    the X-check side, one on the Z-check side), made of the half's
    ``name`` term edges, joined by its other edges, the radial ones, one
    per cycle vertex.  The cycle half-length equals the order of the
    ratio of the two doubled terms.
    """
    t_hi, t_lo = outer_terms  # e.g. (A3, A2): cycle shift is t_hi * t_lo^T
    p = (t_hi * t_lo.T).order()
    cycle_tags = {f"{name}{i}{t}" for i in (1, 2, 3) for t in ("", "T")}
    cycle_edges = [e for e in edges if e[2] in cycle_tags]
    radials = [e for e in edges if e[2] not in cycle_tags]

    def degrees(some_edges) -> np.ndarray:
        ends = [v for u, w, _tag in some_edges for v in (u, w)]
        return np.bincount(ends, minlength=4 * code.lm)

    degree, cycle_degree = degrees(edges), degrees(cycle_edges)
    problems = [] if (degree == 3).all() else ["vertex of degree != 3"]
    vertices = np.flatnonzero(degree).tolist()
    cycle_of = np.zeros(4 * code.lm, dtype=np.int64)
    for c, cycle in enumerate(graph_components(vertices, cycle_edges)):
        cycle_of[cycle] = c

    for comp in graph_components(vertices, edges):
        if len(comp) != 4 * p:
            problems.append(f"component size {len(comp)} != 4p = {4 * p}")
            continue
        if (cycle_degree[comp] != 2).any():
            problems.append("cycle-edge degree != 2 inside a component")
            continue
        lengths = np.unique(cycle_of[comp], return_counts=True)[1].tolist()
        if lengths != [2 * p, 2 * p]:
            problems.append(f"expected two cycles of length {2 * p}, got {lengths}")
            continue
        comp_set = set(comp)
        crossing = [cycle_of[u] != cycle_of[w] for u, w, _tag in radials if u in comp_set]
        if len(crossing) != 2 * p:
            problems.append(f"{len(crossing)} radial edges, expected {2 * p}")
        elif not all(crossing):
            problems.append("radial edge inside a single cycle")

    return WheelReport(half_length=p, edge_count=len(edges), ok=not problems, problems=problems)


def thickness_decomposition(code: BBCode) -> ThicknessDecomposition:
    """Split the Tanner graph into its two planar degree-3 halves.

    Half 'A' carries the term edges A2, A3 and B3 (plus transposes);
    half 'B' carries A1, B1 and B2.  Every component of each half must
    be a wheel; a structural mismatch is reported, not swallowed.
    """
    edges = code.tanner_edges()
    edges_a = [e for e in edges if e[2] in HALF_A_TAGS]
    edges_b = [e for e in edges if e[2] not in HALF_A_TAGS]
    report_a = _verify_wheels(code, edges_a, (code.a_poly.term(3), code.a_poly.term(2)), "A")
    report_b = _verify_wheels(code, edges_b, (code.b_poly.term(2), code.b_poly.term(1)), "B")
    return ThicknessDecomposition(edges_a, edges_b, report_a, report_b)


@dataclass
class ToricLayout:
    """A spanning torus grid inside the Tanner graph, when one exists."""

    i: int
    j: int
    g: int
    h: int
    mu: int
    lam: int


def toric_layout(code: BBCode) -> ToricLayout | None:
    """Search for a toric layout certificate.

    Scans i, j, g, h in {1,2,3}^4 (lexicographically) for a pair of
    ratios A_i A_j^T, B_g B_h^T that generate the whole group with
    order product lm; returns the first hit or None.
    """
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            sa = code.a_poly.term(i) * code.a_poly.term(j).T
            mu = sa.order()
            for g in (1, 2, 3):
                for h in (1, 2, 3):
                    sb = code.b_poly.term(g) * code.b_poly.term(h).T
                    lam = sb.order()
                    if mu * lam != code.lm:
                        continue
                    if len(subgroup_closure([sa, sb], code.l, code.m)) == code.lm:
                        return ToricLayout(i, j, g, h, mu, lam)
    return None


def toric_layout_embedding(code: BBCode, layout: ToricLayout) -> dict[int, tuple[int, int]]:
    """Map all 2n Tanner vertices onto Z_{2mu} x Z_{2lam}.

    L qubit (A_i A_j^T)^a (B_g B_h^T)^b goes to (2a, 2b); the same
    element times A_j^T B_g, A_j^T, B_g gives the R qubit, X check and
    Z check at (2a+1, 2b+1), (2a+1, 2b), (2a, 2b+1) respectively.
    The chosen four term edges then follow the torus grid, which
    :func:`verify_toric_embedding` checks explicitly.
    """
    lm = code.lm
    sa = code.a_poly.term(layout.i) * code.a_poly.term(layout.j).T
    sb = code.b_poly.term(layout.g) * code.b_poly.term(layout.h).T
    coord: dict[Monomial, tuple[int, int]] = {}
    g = Monomial.one(code.l, code.m)
    for a in range(layout.mu):
        h = g
        for b in range(layout.lam):
            coord[h] = (a, b)
            h = h * sb
        g = g * sa
    if len(coord) != lm:
        raise CodeConstructionError("layout ratios do not enumerate the group")

    aj_t = code.a_poly.term(layout.j).T
    bg = code.b_poly.term(layout.g)
    emb: dict[int, tuple[int, int]] = {}
    for alpha, (a, b) in coord.items():
        emb[alpha.index] = (2 * a, 2 * b)  # L
        emb[lm + (alpha * aj_t * bg).index] = (2 * a + 1, 2 * b + 1)  # R
        emb[2 * lm + (alpha * aj_t).index] = (2 * a + 1, 2 * b)  # X
        emb[3 * lm + (alpha * bg).index] = (2 * a, 2 * b + 1)  # Z
    return emb


def verify_toric_embedding(code: BBCode, layout: ToricLayout) -> bool:
    """Check the layout is a bijection mapping its four term edges to grid edges."""
    emb = toric_layout_embedding(code, layout)
    if len(emb) != 4 * code.lm or len(set(emb.values())) != 4 * code.lm:
        return False
    two_mu, two_lam = 2 * layout.mu, 2 * layout.lam
    chosen = {f"A{layout.i}", f"A{layout.j}", f"B{layout.g}", f"B{layout.h}"}
    for u, v, tag in code.tanner_edges():
        base = tag[:-1] if tag.endswith("T") else tag
        if base not in chosen:
            continue
        (ua, ub), (va, vb) = emb[u], emb[v]
        da = min((ua - va) % two_mu, (va - ua) % two_mu)
        db = min((ub - vb) % two_lam, (vb - ub) % two_lam)
        if sorted((da, db)) != [0, 1]:
            return False
    return True


# The stock catalog of published codes: name -> (l, m, A, B, k, d).  d is
# the published distance, exact up to bb288; for bb360 and bb756 it is
# only an upper bound.  catalog_code stores it as distance_upper.
CODE_CATALOG: dict[str, tuple[int, int, str, str, int, int]] = {
    "bb72": (6, 6, "x3+y+y2", "y3+x+x2", 12, 6),
    "bb90": (15, 3, "x9+y+y2", "1+x2+x7", 8, 10),
    "bb108": (9, 6, "x3+y+y2", "y3+x+x2", 8, 10),
    "bb144": (12, 6, "x3+y+y2", "y3+x+x2", 12, 12),
    "bb288": (12, 12, "x3+y2+y7", "y3+x+x2", 12, 18),
    "bb360": (30, 6, "x9+y+y2", "y3+x25+x26", 12, 24),
    "bb756": (21, 18, "x3+y10+y17", "y5+x3+x19", 16, 34),
}


def catalog_code(name: str) -> BBCode:
    l, m, a, b, k, d = CODE_CATALOG[name]
    code = build_code(l, m, a, b)
    if code.k != k:
        raise CodeConstructionError(f"catalog {name}: k={code.k}, expected {k}")
    return replace(code, distance_upper=d)
