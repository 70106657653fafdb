"""Logical Pauli machinery for bivariate bicycle codes.

Logical operators are handled as pairs of polynomials acting on the two
data blocks: X(P, Q) applies X on q(L, a) for a in P and q(R, b) for b
in Q.  A basis is generated from three polynomials f, g, h with
f*B = 0 and g*B + h*A = 0: the families X(a*f, 0) / Z(a*h^T, a*g^T)
form the unprimed block and X(a*g, a*h) / Z(0, a*f^T) the primed one.
Anticommutation inside a block depends only on whether a^T*b appears in
the product f*h, which drives the logical-qubit label selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .code import (
    HALF_A_TAGS,
    BBCode,
    BivariatePoly,
    Monomial,
    generator_paths,
    graph_components,
    group_pair_ratios,
    maps_rows_onto,
    monomial_from_index,
    translation_table,
)
from .decode import BudgetExceeded, coset_minimum_trials, exact_distance_small
from .gf2 import BinMatrix, BinVector, int_rows, nwords, pack_bits


def _support(l_poly: BivariatePoly, r_poly: BivariatePoly) -> BinVector:
    """Support of the Pauli with block polynomials (l_poly, r_poly), L block first."""
    lm = l_poly.l * l_poly.m
    sup = [t.index for t in l_poly.terms] + [lm + t.index for t in r_poly.terms]
    return BinVector.from_support(2 * lm, sup)


class BasisSearchError(RuntimeError):
    pass


@dataclass
class LogicalBasis:
    """A full symplectic basis of 2k logical operators.

    Ordering convention (used for logical syndromes everywhere): the k
    X-type operators are the unprimed X(n_i f, 0) followed by the
    primed X(n_i g, n_i h); Z-type mirrors with the m labels.  Operator
    i of one type anticommutes exactly with operator i of the other.
    """

    f: BivariatePoly
    g: BivariatePoly
    h: BivariatePoly
    n_labels: tuple[Monomial, ...]
    m_labels: tuple[Monomial, ...]

    def x_bar(self, alpha: Monomial) -> BinVector:
        return _support(self.f.shift(alpha), BivariatePoly.zero(self.f.l, self.f.m))

    def z_bar(self, alpha: Monomial) -> BinVector:
        return _support(self.h.T.shift(alpha), self.g.T.shift(alpha))

    def x_bar_primed(self, alpha: Monomial) -> BinVector:
        return _support(self.g.shift(alpha), self.h.shift(alpha))

    def z_bar_primed(self, alpha: Monomial) -> BinVector:
        return _support(BivariatePoly.zero(self.f.l, self.f.m), self.f.T.shift(alpha))

    @cached_property
    def x_support_matrix(self) -> BinMatrix:
        """The X operators' supports, one row each; built once per basis."""
        return BinMatrix.from_rows([self.x_bar(a) for a in self.n_labels]
                                   + [self.x_bar_primed(a) for a in self.n_labels])

    @cached_property
    def z_support_matrix(self) -> BinMatrix:
        """The Z operators' supports, one row each; built once per basis."""
        return BinMatrix.from_rows([self.z_bar(a) for a in self.m_labels]
                                   + [self.z_bar_primed(a) for a in self.m_labels])

    def validate(self, code: BBCode) -> None:
        """Assert commutation and pairing; raises on any failure.

        X operator i and Z operator j anticommute iff their supports
        overlap in an odd number of qubits, so the pairing holds iff the
        product of the two support matrices is the identity.  That
        implies the span: a combination of X operators in rs(HX) commutes
        with every Z operator, so by the pairing it includes none of
        them; likewise for the Z operators and rs(HZ).
        """
        xs, zs = self.x_support_matrix, self.z_support_matrix
        if xs.rows != code.k or zs.rows != code.k:
            raise BasisSearchError("operator count != k")
        if code.hz.mul_mat(xs.transpose()).nnz:
            raise BasisSearchError("X operator fails to commute with Z checks")
        if code.hx.mul_mat(zs.transpose()).nnz:
            raise BasisSearchError("Z operator fails to commute with X checks")
        pairing = xs.mul_mat(zs.transpose()).to_dense()
        defects = np.argwhere(pairing != np.eye(code.k, dtype=np.uint8))
        if len(defects):
            i, j = defects[0]
            raise BasisSearchError(f"pairing defect at ({i}, {j})")


# ---------------------------------------------------------------------------
# Basis search
# ---------------------------------------------------------------------------

F_CANDIDATES = 30  # lightest f orbits tried
GH_TRIALS = 40  # BP-OSD samples of low-weight X logicals (g, h)
GH_CANDIDATES = 60  # lightest (g, h) orbits tried
BASIS_SEED = 0  # seed of the random stream behind the f and (g, h) pools
LABEL_SEARCH_NODES = 500_000  # depth-first nodes before a label search gives up


# Bits of translated copies that _orbit_keys holds at once.
_ORBIT_KEY_BITS = 1 << 22


def _orbit_keys(bits: np.ndarray, code: BBCode) -> np.ndarray:
    """An exact translation-orbit invariant of each row of ``bits``.

    A row holds one or two lm blocks, translated together.  Its key is
    its least translate, as packed words compared in order, so two rows
    share a key iff one is a translate of the other.
    """
    lm = code.lm
    table = translation_table(code.l, code.m)
    # perms[t] moves a row by a translation; its rows run over the group
    perms = np.hstack([table + b * lm for b in range(bits.shape[1] // lm)])
    n_words = nwords(perms.shape[1])
    keys = np.empty((len(bits), n_words), dtype=np.uint64)
    chunk = max(1, _ORBIT_KEY_BITS // perms.size)
    for lo in range(0, len(bits), chunk):
        translates = np.take(bits[lo : lo + chunk], perms, axis=1)
        words = pack_bits(translates.reshape(-1, perms.shape[1])).reshape(-1, lm, n_words)
        key = keys[lo : lo + chunk]
        least = np.ones(words.shape[:2], dtype=bool)  # translates tied so far
        for w in range(n_words):
            key[:, w] = np.where(least, words[:, :, w], np.iinfo(np.uint64).max).min(axis=1)
            least &= words[:, :, w] == key[:, w, None]
    return keys


def _orbit_representatives(bits: np.ndarray, code: BBCode, count: int) -> list[BinVector]:
    """The first nonzero row of each translation orbit, the ``count`` lightest.

    Ties in weight go by support, in lexicographic order.  Translates
    share a weight, so the rows are keyed one weight class at a time,
    lightest first, until the classes keyed hold ``count`` orbits.
    """
    weights = bits.sum(axis=1)
    classes = [bits[:0]]
    for w in np.unique(weights[weights > 0]):
        rows = bits[weights == w]
        _, first = np.unique(_orbit_keys(rows, code), axis=0, return_index=True)
        classes.append(rows[first])
        if sum(map(len, classes)) >= count:
            break
    reps = np.vstack(classes)
    # of two supports of one weight, the smaller has a 1 where the bits first differ
    order = np.lexsort(np.vstack([1 - reps.T[::-1], reps.sum(axis=1)]))
    return [BinVector.from_bits(reps[i]) for i in order[:count]]


def _f_candidates(code: BBCode, rng: np.random.Generator) -> list[BivariatePoly]:
    """Low-weight solutions of f*B = 0, one per translation orbit.

    Up to dimension 16 the kernel is swept whole, combination ``mask``
    summing the basis vectors at its set bits, masks ascending.
    Larger kernels get the basis vectors, their pairs and 20,000
    random combinations.
    """
    basis = np.array([v.to_bits() for v in code.b_poly.to_matrix().transpose().nullspace_basis()])
    dim = len(basis)
    if dim <= 16:
        masks = np.arange(1, 1 << dim)
        coeff = (masks[:, None] >> np.arange(dim)) & 1
    else:
        i, j = np.triu_indices(dim)  # each basis vector, then its pairs with later ones
        eye = np.eye(dim, dtype=np.uint8)
        draws = (rng.integers(0, 2, dim, dtype=np.uint8) for _ in range(20000))
        coeff = np.vstack([eye[i] | eye[j], *(c for c in draws if c.any())])
    # uint8 products wrap modulo 256, which keeps their parity
    vectors = (coeff.astype(np.uint8) @ basis) & 1
    return [BivariatePoly.from_vector(v, code.l, code.m)
            for v in _orbit_representatives(vectors, code, F_CANDIDATES)]


def _gh_candidates(
    code: BBCode, rng: np.random.Generator
) -> list[tuple[BivariatePoly, BivariatePoly]]:
    """Low-weight X-type logicals (g, h), one per translation orbit.

    Small codes get an exhaustive sweep of the lightest logicals via
    the meet-in-the-middle oracle; BP-OSD sampling covers the rest and
    keeps both the raw and locally-descended solution of every trial,
    which diversifies the pool.
    """
    found: list[BinVector] = []
    # The sweep runs to weight d + 2, capped at 8, although it costs most
    # of bb72's basis search: bb72's chosen (g, h) is an exact witness of
    # weight 8, and with the sweep stopped at d or d + 1 no triple passes.
    if code.distance_upper is not None:
        try:
            _, witnesses = exact_distance_small(code, min(code.distance_upper + 2, 8), pauli="X")
            found.extend(witnesses)
        except BudgetExceeded:
            pass

    for _, xi, descended in coset_minimum_trials(rng, code.hz, code.hx, GH_TRIALS):
        found += [xi, descended]
    out = []
    found_bits = np.array([v.to_bits() for v in found])
    for v in _orbit_representatives(found_bits, code, GH_CANDIDATES):
        bits = v.to_bits()
        g = BivariatePoly.from_vector(BinVector.from_bits(bits[: code.lm]), code.l, code.m)
        h = BivariatePoly.from_vector(BinVector.from_bits(bits[code.lm :]), code.l, code.m)
        out.append((g, h))
    return out


def _family_span_ok(code: BBCode, f: BivariatePoly, g: BivariatePoly, h: BivariatePoly) -> bool:
    """Do the translated families span k logical qubits mod stabilizer?

    A prefilter: on a failing triple the label search runs to its node cap.
    """
    rows = []
    for alpha in code.monomials():
        rows.append(_support(f.shift(alpha), BivariatePoly.zero(code.l, code.m)))
        rows.append(_support(g.shift(alpha), h.shift(alpha)))
    fam = BinMatrix.from_rows(rows)
    return code.hx.stack(fam).rank() == code.check_rank + code.k


def _pairing_matrix(code: BBCode, f: BivariatePoly, h: BivariatePoly) -> np.ndarray:
    """K[i, j] = 1 iff X_bar(mono_i) anticommutes with Z_bar(mono_j)."""
    lm = code.lm
    coeffs = (f * h).to_vector().to_bits()
    table = translation_table(code.l, code.m)
    ia, ib = np.divmod(np.arange(lm), code.m)
    inv = ((code.l - ia) % code.l) * code.m + (code.m - ib) % code.m
    return coeffs[table[inv]]


def select_qubit_labels(
    code: BBCode,
    f: BivariatePoly,
    h: BivariatePoly,
) -> tuple[tuple[Monomial, ...], tuple[Monomial, ...]] | None:
    """Find labels {n_i}, {m_i} whose pairing matrix is the identity.

    Depth-first search over monomial pairs with conflict masks; returns
    None when the search space is exhausted (callers fall back to a
    different basis triple).
    """
    half = code.k // 2
    K = _pairing_matrix(code, f, h)
    if BinMatrix.from_dense(K).rank() < half:  # an identity of size half needs that rank
        return None

    def set_bits(mask: int):
        """The set bit positions of mask, ascending."""
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    # K[ni, mi] = 1 puts ni in col_hits[mi] and mi in row_hits[ni], so the
    # masks below drop the chosen pair themselves
    # row_hits[ni]: the m labels X_bar(ni) anticommutes with;
    # col_clear[mi]: the n labels Z_bar(mi) spares
    row_hits = int_rows(pack_bits(K))
    col_clear = [~hits for hits in int_rows(pack_bits(K.T))]
    nodes = 0
    chosen_n: list[int] = []
    chosen_m: list[int] = []

    def dfs(row_mask: int, col_mask: int) -> bool:
        nonlocal nodes
        if len(chosen_n) == half:
            return True
        nodes += 1
        if nodes > LABEL_SEARCH_NODES:
            return False
        still_needed = half - len(chosen_n) - 1
        start = chosen_n[-1] + 1 if chosen_n else 0
        for ni in set_bits(row_mask >> start << start):
            new_col = col_mask & ~row_hits[ni]
            chosen_n.append(ni)
            for mi in set_bits(row_hits[ni] & col_mask):
                new_row = row_mask & col_clear[mi]
                chosen_m.append(mi)
                if new_row.bit_count() >= still_needed and dfs(new_row, new_col):
                    return True
                chosen_m.pop()
            chosen_n.pop()
        return False

    everything = (1 << code.lm) - 1
    if not dfs(everything, everything):
        return None
    n_labels = tuple(monomial_from_index(i, code.l, code.m) for i in chosen_n)
    m_labels = tuple(monomial_from_index(i, code.l, code.m) for i in chosen_m)
    return n_labels, m_labels


def find_basis_polynomials(code: BBCode) -> list[LogicalBasis]:
    """The lightest valid logical basis, as a one-element list.

    Candidate (f, g, h) triples are ranked by max(|f|, |g|+|h|), ties by
    their places in the f and (g, h) pools.  Triples that fail the span
    condition or admit no label selection are skipped, and the first
    labelled triple's basis is returned.  That basis passes ``validate``
    by construction (f solves f*B = 0 and (g, h) lies in ker HZ, the
    cross pairings vanish, and the primed block reuses K = f*h), so a
    failed validation is a bug and is raised, not skipped.

    Raises:
        BasisSearchError: k < 2, nothing found (never observed for the
        stock catalog), or the first labelled triple's basis fails
        ``validate``.
    """
    if code.k < 2:
        raise BasisSearchError("need k >= 2")
    rng = np.random.default_rng(BASIS_SEED)
    fs = _f_candidates(code, rng)
    ghs = _gh_candidates(code, rng)
    if not fs or not ghs:
        raise BasisSearchError("no kernel solutions found")

    scored = sorted(((f, g, h) for f in fs for g, h in ghs),
                    key=lambda t: max(t[0].weight, t[1].weight + t[2].weight))
    for f, g, h in scored:
        if not _family_span_ok(code, f, g, h):
            continue
        labels = select_qubit_labels(code, f, h)
        if labels is None:
            continue
        basis = LogicalBasis(f=f, g=g, h=h, n_labels=labels[0], m_labels=labels[1])
        basis.validate(code)
        return [basis]
    raise BasisSearchError("no valid (f, g, h) triple found")


# ---------------------------------------------------------------------------
# ZX duality
# ---------------------------------------------------------------------------


def zx_duality_permutation(code: BBCode) -> np.ndarray:
    """The data permutation q(L, a) <-> q(R, a^T) as an index map."""
    lm = code.lm
    perm = np.zeros(code.n, dtype=np.int64)
    for i in range(lm):
        ti = monomial_from_index(i, code.l, code.m).T.index
        perm[i] = lm + ti
        perm[lm + i] = ti
    return perm


def zx_duality_check(code: BBCode, permutation: np.ndarray | None = None) -> bool:
    """Does the permutation swap every X check with a Z check?

    With the canonical q(L, a) <-> q(R, a^T) map, the X check at b must
    land on the support of the Z check at b^T (and vice versa).
    """
    perm = zx_duality_permutation(code) if permutation is None else np.asarray(permutation)
    return maps_rows_onto(code.hx, code.hz, perm) and maps_rows_onto(code.hz, code.hx, perm)


# ---------------------------------------------------------------------------
# Group decomposition and duality swap planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupFactor:
    """A named cyclic factor of prime-power order of Z_l x Z_m."""

    name: str
    order: int
    generator: Monomial


def _prime_power_factors(value: int) -> list[tuple[int, int]]:
    out = []
    rem = value
    p = 2
    while p * p <= rem:
        if rem % p == 0:
            a = 0
            while rem % p == 0:
                rem //= p
                a += 1
            out.append((p, a))
        p += 1
    if rem > 1:
        out.append((rem, 1))
    return out


def decompose_group(l: int, m: int) -> tuple[GroupFactor, ...]:
    """Split Z_l x Z_m into cyclic factors of prime-power order.

    Generators are chosen so that the factor generators of each
    variable multiply back to it: x equals the product of its factor
    generators, same for y.
    """
    if l < 1 or m < 1:
        raise ValueError("group dimensions must be >= 1")
    names = iter("pqrstuvw")
    factors = []
    for value, variable in ((l, "x"), (m, "y")):
        for prime, power in _prime_power_factors(value):
            pk = prime**power
            rest = value // pk
            e = 1 if rest == 1 else rest * pow(rest, -1, pk) % value
            gen = Monomial(e, 0, l, m) if variable == "x" else Monomial(0, e, l, m)
            factors.append(GroupFactor(next(names), pk, gen))
    return tuple(factors)


@dataclass
class RatioPlanEntry:
    """Swap plan for inverting one cyclic factor."""

    factor: GroupFactor
    pair_offset: int  # c: pairs are (i, -i-c)
    carrier: Monomial | None  # extra involution multiplied into each ratio
    ratios: list[Monomial]
    costs: list[int]
    expressions: list[list[Monomial]]

    @property
    def cost(self) -> int:
        return sum(self.costs)


@dataclass
class DualitySwapPlan:
    entries: list[RatioPlanEntry]
    chain_length: int
    cnot_depth: int
    unreachable: list[str] = field(default_factory=list)


def _required_ratios(gen: Monomial, order: int, offset: int) -> list[Monomial]:
    """Ratios needed to swap i <-> -i-offset pairs of the factor <gen>."""
    seen: set[Monomial] = set()
    out: list[Monomial] = []
    for i in range(order):
        j = (-i - offset) % order
        if i >= j:
            continue
        ratio = gen ** (j - i)
        canon = min(ratio, ratio.T)
        if canon not in seen and not ratio.is_one():
            seen.add(canon)
            out.append(canon)
    return out


def plan_duality_swaps(code: BBCode) -> DualitySwapPlan:
    """Plan the qubit relabeling a -> a^T out of available term ratios.

    Each cyclic factor of odd order o needs its (o-1)/2 inversion-pair
    ratios; even orders scan the pairing offset, which can trade the
    g^2 chord for g itself.  When a required ratio is expensive to
    reach, multiplying all of a factor's ratios by a cheap involution
    (and undoing it with one extra swap layer) is also considered.
    The chain length is the total number of elementary swap layers;
    the full end-to-end exchange costs (2*chain - 1) nearest-neighbor
    swap gadgets of CNOT depth 12 each.
    """
    dist, path = generator_paths(group_pair_ratios(code), code.l, code.m)
    involutions = [
        mono
        for i in range(code.lm)
        if not (mono := monomial_from_index(i, code.l, code.m)).is_one()
        and (mono * mono).is_one()
    ]
    entries = []
    unreachable = []
    for factor in decompose_group(code.l, code.m):
        o = factor.order
        if o <= 2:
            continue
        best: RatioPlanEntry | None = None
        for offset in range(o):
            base = _required_ratios(factor.generator, o, offset)
            if not base:
                continue
            for carrier in [None] + involutions:
                ratios = [r * carrier if carrier else r for r in base]
                if carrier is not None:
                    ratios = ratios + [carrier]
                if any(r not in dist for r in ratios):
                    continue
                costs = [dist[r] for r in ratios]
                entry = RatioPlanEntry(
                    factor=factor,
                    pair_offset=offset,
                    carrier=carrier,
                    ratios=ratios,
                    costs=costs,
                    expressions=[path[r] for r in ratios],
                )
                if best is None or entry.cost < best.cost:
                    best = entry
        if best is None:
            unreachable.append(factor.name)
            continue
        entries.append(best)
    chain = sum(e.cost for e in entries)
    return DualitySwapPlan(
        entries=entries,
        chain_length=chain,
        cnot_depth=(2 * chain - 1) * 12 if chain else 0,
        unreachable=unreachable,
    )


# ---------------------------------------------------------------------------
# Ancilla measurement systems
# ---------------------------------------------------------------------------


@dataclass
class PlaneComponentReport:
    sizes: list[int]
    kinds: list[str]  # per component: isolated, pair, path, tree, ring, hairy-ring, other


@dataclass
class AncillaSystem:
    """Layered Tanner-graph extension measuring one logical operator."""

    added_qubits: int  # (2r - 1) copies of the base subgraph, r the layer count
    plane_a: PlaneComponentReport
    plane_b: PlaneComponentReport


def _classify_components(vertices: set[int], edges: list[tuple[int, int]]) -> PlaneComponentReport:
    deg = dict.fromkeys(vertices, 0)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    sizes, kinds = [], []
    for comp in graph_components(vertices, edges):
        degs = sorted(deg[u] for u in comp)
        ecount = sum(degs) // 2
        n = len(comp)
        if n == 1:
            kind = "isolated"
        elif n == 2 and ecount == 1:
            kind = "pair"
        elif ecount == n - 1:
            kind = "path" if max(degs) <= 2 else "tree"
        elif ecount == n:
            kind = "ring" if degs[0] == 2 else "hairy-ring"
        else:
            kind = "other"
        sizes.append(n)
        kinds.append(kind)
    return PlaneComponentReport(sizes=sizes, kinds=kinds)


def build_ancilla_system(
    code: BBCode, basis: LogicalBasis, target: str, layers: int
) -> AncillaSystem:
    """Construct the layered extension that measures X(f,0) or Z(h^T,g^T).

    The base subgraph collects the operator's data qubits plus every
    opposite-type check touching them.  On top of the in-code copy the
    extension adds ``layers`` dual copies interleaved with layers-1
    primal copies, adjacent copies joined by their associated vertex
    pairs, for (2*layers - 1) times the base subgraph's vertex count in
    added qubits.

    Raises:
        ValueError: layers < 1 or unknown target.
    """
    if layers < 1:
        raise ValueError("need at least one layer")
    # the opposite-type checks: register 3 holds the Z checks, 2 the X checks
    if target == "X":
        op, check_reg = basis.x_bar(Monomial.one(code.l, code.m)), 3
    elif target == "Z":
        op, check_reg = basis.z_bar(Monomial.one(code.l, code.m)), 2
    else:
        raise ValueError("target must be 'X' or 'Z'")

    qubits = set(op.support.tolist())
    edges = [
        (u, v, tag)
        for u, v, tag in code.tanner_edges()
        if v in qubits and u // code.lm == check_reg
    ]
    vertices = qubits | {u for u, _v, _t in edges}
    return AncillaSystem(
        added_qubits=(2 * layers - 1) * len(vertices),
        plane_a=_classify_components(
            vertices, [(u, v) for u, v, t in edges if t in HALF_A_TAGS]
        ),
        plane_b=_classify_components(
            vertices, [(u, v) for u, v, t in edges if t not in HALF_A_TAGS]
        ),
    )
