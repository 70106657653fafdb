"""BP-OSD decoding and distance estimation.

The decoder treats an arbitrary binary matrix D with per-column priors
as a classical linear code with noiseless syndromes: belief propagation
(normalized min-sum, flooding schedule) estimates per-column posterior
marginals.  It stops in one of three ways: converged, once its hard
decision reproduces the syndrome; saturated, once every column's |LLR|
has reached the clip through which its marginal is computed, so that
the marginals depend only on the LLRs' signs; or at its iteration cap.
:func:`bp_marginals_batch` states where saturation was seen to fire.
Only when BP does not converge does ordered-statistics post-processing
solve the syndrome on the most likely information set and sweep single
and paired flips of the excluded columns to lower the solution weight
(Panteleev-Kalachev, arXiv:1904.02703; Roffe et al., arXiv:2005.07016).

There is one min-sum loop, :func:`bp_marginals_batch`, which runs a
stack of independent problems with one ``BPConfig`` side by side on
their concatenated edges; a lone decode is a stack of one.  Only the
code-level coset searches stack: their problems (about 460 edges each
on bb144) are bound by per-call overhead, so :func:`coset_minimum_trials`
runs up to ``_BATCH_EDGES`` edges of them in one set of array passes,
about a third of their lone BP time.  Shots and circuit-distance trials,
bound by their passes over tens of thousands of edges, decode alone:
stacked shots took 2.9 against 2.6 ms a side on bb144/12.  A stacked
result is byte-identical to a lone run.

An iteration is a fixed set of full passes over the edges, so its cost
is their count; :func:`bp_marginals_batch` keeps it low by computing the
minima, clip, scale and sign of each check once per check rather than
once per edge.  Each of those rewrites is exact, so messages, marginals
and iteration counts are those of the plain per-edge rule.

OSD weighs solutions in integer units.  Each log weight log(1/prior) is
rounded to an integer-valued float64 at a scale, set by the decoder's
column count and largest weight, that keeps any solution's weight below
2**53; every weight is then exact under any summation order, so no BLAS
thread count or block shape can change a decode.  Equal priors, as in
the distance trials, give every column weight 1, and OSD then scores
flips by popcount on the packed reduced rows.

The trials on one matrix share its elimination.  ``BinMatrix.rref``
caches its default-order result, whose R is shared and never written
to.  A coset problem's OSD, whose matrix is that matrix with one extra
row eta, adds eta's row to the cached RREF instead of eliminating the
whole matrix, whenever BP leaves the columns in index order, the
cache's order.  Saturated BP does so in every circuit-distance trial
checked.  The update is exact: under a fixed column order the RREF of
a row space is unique, so it gives the full elimination's output byte
for byte.  Shot decodes never take it.

The same machinery doubles as a randomized upper bound on code and
circuit distance: minimize a solution weight subject to anticommuting
with a random logical operator.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import combinations, count

import numpy as np

from .code import BBCode
from .gf2 import WORD, BinMatrix, BinVector, int_rows, nwords, unpack_bits

PRIOR_FLOOR = 1e-12
# Flip sets OSD's sweep scores per product (_flip_weights); bounds the
# float64 copy that the product makes of its 0/1 operand.
_FLIP_BLOCK = 512


class DecodingError(RuntimeError):
    """Syndrome outside the model's column space (a model bug, not noise)."""


@dataclass
class BPConfig:
    """Min-sum belief propagation settings.

    BP stops at ``max_iters`` unless it converges first, or saturates:
    every |LLR| at ``_LLR_CLIP`` (see :func:`bp_marginals_batch`).

    ``scale`` normalizes the check-to-variable messages.  Shot decodes
    keep the default 1.0: on bb144/12 at p = 0.001 BP then converges on
    99.7% of sides, against 68% with 0.625 and a raw final readout
    block.  The distance trials (``_DISTANCE_BP``) keep 0.625: at 1.0
    the code-level trials' witnesses change, and with them the bases
    ``find_basis_polynomials`` picks.  The circuit-level trials' do not:
    on 60 bb144/12 trials BP saturated at iteration 60 at 0.625 and at
    23-193 at 1.0, 40 and 38 ms a trial.

    Raises:
        ValueError: max_iters not a whole number >= 1, or scale outside (0, 1], NaN included.
    """

    max_iters: int = 10000
    scale: float = 1.0

    def __post_init__(self):
        # BP stops at the cap when its iteration count equals it: never, for a fraction or inf
        if not float(self.max_iters).is_integer() or self.max_iters < 1:
            raise ValueError("max_iters must be a whole number >= 1")
        self.max_iters = int(self.max_iters)
        if not 0 < self.scale <= 1:
            raise ValueError("scale must lie in (0, 1]")


@dataclass
class OSDConfig:
    """Ordered-statistics settings.

    After solving on the information set, the combination sweep tries
    every single excluded-column flip and all pairs among the
    ``sweep_depth`` most likely excluded columns.

    Raises:
        ValueError: sweep_depth not a whole number >= 0.
    """

    sweep_depth: int = 20

    def __post_init__(self):
        if not float(self.sweep_depth).is_integer() or self.sweep_depth < 0:
            raise ValueError("sweep_depth must be a whole number >= 0")
        self.sweep_depth = int(self.sweep_depth)


@dataclass
class DecodeOutcome:
    xi: BinVector
    logical: BinVector | None
    converged: bool
    iterations: int


class BPOSDDecoder:
    """Reusable decoder for a fixed (D, priors) pair.

    Immutable after construction; decode calls are pure functions of
    the syndrome, so instances can be shared across worker threads.
    Every check of D has an edge: D needs at least one row, and each
    row at least one 1.  Every matrix the package decodes meets this: the
    detector matrices, and a code's check matrix with a nonzero row eta
    appended (:func:`coset_minimum_trials`).

    Raises:
        ValueError: D has no rows or an all-zero row, or the priors are
            not finite or do not match D's column count.
    """

    def __init__(
        self,
        matrix: BinMatrix,
        priors: np.ndarray,
        bp: BPConfig | None = None,
        osd: OSDConfig | None = None,
        logical: BinMatrix | None = None,
    ):
        self.matrix = matrix
        priors = np.asarray(priors, dtype=np.float64)
        if priors.shape != (matrix.cols,):
            raise ValueError("priors length must equal the column count")
        if not np.isfinite(priors).all():
            raise ValueError("priors must be finite")
        priors = np.clip(priors, PRIOR_FLOOR, 1 - PRIOR_FLOOR)
        self.bp_cfg = bp or BPConfig()
        self.osd_cfg = osd or OSDConfig()
        self.logical = logical
        # equal priors weigh every column alike, so each weighs 1 and OSD
        # counts bits; other log weights log(1/prior) are rounded to
        # integers at a scale where any solution's weight, a sum of at most
        # cols + 2 of them, stays below 2**53 and so is exact in any order
        self.unit_weights = bool((priors == priors[:1]).all())
        if self.unit_weights:
            self.log_weights = np.ones(matrix.cols)
        else:
            lw = np.log(1 / priors)
            self.log_weights = np.rint(lw * (2.0**52 / ((matrix.cols + 2) * lw.max())))

        # edge structure in check-major order, D's shared csr view; each check
        # is one reduceat segment, which can be neither empty nor start at n_edges
        indptr, self.edge_var = matrix.csr()
        self.degree = np.diff(indptr)
        if not (matrix.rows and self.degree.all()):
            raise ValueError("D must have rows, and a 1 in each of them")
        self.n_edges = len(self.edge_var)
        self.prior_llr = np.log((1 - priors) / priors)

    # -- belief propagation ------------------------------------------------

    def bp_marginals(self, syndrome: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool, int]:
        """Run min-sum BP; returns (q, hard_decision, converged, iterations).

        q[j] estimates Pr[xi_j = 1]; converged means the hard decision
        reproduced the syndrome exactly at some iteration.  BP also
        stops, unconverged, at the first iteration where every |LLR| has
        reached ``_LLR_CLIP`` (q is then fixed by the LLRs' signs), or
        at its cap.  This is :func:`bp_marginals_batch` on a stack of one,
        the way shot decodes and circuit-distance trials run: stacking
        them gains nothing (see the module docstring).
        """
        return bp_marginals_batch([(self, syndrome)])[0]

    def _syndrome_of(self, bits: np.ndarray) -> np.ndarray:
        """D x for a 0/1 vector x: one XOR per check over its Tanner edges."""
        return np.bitwise_xor.reduceat(bits[self.edge_var], np.cumsum(self.degree) - self.degree)

    # -- ordered statistics --------------------------------------------------

    def osd_postprocess(self, syndrome: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Solve D xi = syndrome on the most likely information set.

        Columns are ranked by BP's error probability q, most likely
        first, ties broken by lower index (the ordering of
        Panteleev-Kalachev, arXiv:1904.02703); the elimination keeps
        each column that is independent of the higher-ranked ones, and
        the order-0 solution is supported on those columns.  The
        combination sweep then flips the excluded columns singly (all)
        and in pairs (among the ``sweep_depth`` most likely) and the
        lightest solution wins; among equal weights, order-0 beats
        singles, singles beat pairs, and within each the first in sweep
        order wins.

        Every candidate is weighed by :meth:`_flip_weights` in the
        decoder's integer log weights, so each weight is exact and the
        tie rule holds exactly: no summation order, BLAS thread count or
        block shape can change the answer.

        Raises:
            DecodingError: syndrome not in the column space.
        """
        n = self.matrix.cols
        red_t, pivots, nonpivot = self._reduce(syndrome, q)
        # pairs among the top columns, in combinations order
        top = nonpivot[: self.osd_cfg.sweep_depth]
        sweep = (np.zeros((1, 0), dtype=np.int64), nonpivot[:, None],
                 top[np.array(np.triu_indices(top.size, k=1))].T)
        best, best_w = sweep[0][0], np.inf
        for flips in sweep:
            if len(flips):
                weights = self._flip_weights(red_t, pivots, flips)
                j = int(np.argmin(weights))
                if weights[j] < best_w:
                    best, best_w = flips[j], weights[j]

        x = np.zeros(n, dtype=np.uint8)
        x[pivots] = unpack_bits(np.bitwise_xor.reduce(red_t[[n, *best]]), pivots.size)[0]
        x[best] = 1
        return x

    def _reduce(self, syndrome: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, ...]:
        """OSD's elimination: (red_t, pivots, nonpivot).

        Row j of ``red_t`` is column j of the reduced pivot rows, packed,
        and row n holds the order-0 solution's pivot bits; the bits past
        the rank are zero.  ``nonpivot`` lists the excluded columns, most
        likely first.

        Raises:
            DecodingError: syndrome not in the column space.
        """
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        n = self.matrix.cols
        order = np.argsort(-q, kind="stable")
        # the syndrome column, tried last, takes a pivot only outside the column space
        R, pivot_cols = self.matrix.append_col(syndrome).rref(pivot_order=np.append(order, n))
        if pivot_cols[-1] == n:
            raise DecodingError("syndrome is not in the column space of D")
        rank = len(pivot_cols)
        red_t = BinMatrix(rank, n + 1, R.words[:rank]).transpose().words
        pivots = np.array(pivot_cols, dtype=np.int64)
        is_pivot = np.zeros(n, dtype=bool)
        is_pivot[pivots] = True
        return red_t, pivots, order[~is_pivot[order]]

    def _flip_weights(self, red_t, pivots, flips) -> np.ndarray:
        """Solution weight after flipping the excluded columns in each row of ``flips``.

        ``flips`` has width 0 (the order-0 solution), 1 or 2.  Flipping a
        row's columns sets the pivot bits to row n of ``red_t`` (the
        reduced syndrome) XOR those columns' rows.  Rows are gathered
        ``_FLIP_BLOCK`` flip sets at a time.  Unit weights are scored by
        popcount, other weights by one product of the unpacked pivot bits
        with the pivot weights, whose float64 copy of its 0/1 operand
        stays under 4 MB at rank 930.  The weights are integers below
        2**53, so either sum is exact.
        """
        n, lw = red_t.shape[0] - 1, self.log_weights
        lw_piv, weights = lw[pivots], np.empty(len(flips))
        for lo in range(0, len(flips), _FLIP_BLOCK):
            block, out = flips[lo : lo + _FLIP_BLOCK], weights[lo : lo + _FLIP_BLOCK]
            rows = np.bitwise_xor.reduce(red_t[block], axis=1) ^ red_t[n]
            if self.unit_weights:
                out[:] = np.bitwise_count(rows).sum(axis=1)
            else:
                out[:] = unpack_bits(rows, pivots.size) @ lw_piv
            out += lw[block].sum(axis=1)
        return weights

    # -- end-to-end ---------------------------------------------------------

    def decode(self, syndrome, marginals=None) -> DecodeOutcome:
        """BP, then OSD only where BP fails.

        A converged side returns BP's hard decision; an unconverged one
        returns the OSD solution.  Either way the solution satisfies
        D xi = s, which is checked before returning.  ``marginals``, if
        given, is this syndrome's BP result, from :meth:`bp_marginals` or
        a stack of :func:`bp_marginals_batch`, and BP does not run again.
        """
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        if marginals is None:
            marginals = self.bp_marginals(syndrome)
        q, hard, converged, iters = marginals
        x = hard if converged else self.osd_postprocess(syndrome, q)
        if self._syndrome_of(x).tobytes() != syndrome.tobytes():
            raise DecodingError("post-processing failed to satisfy the syndrome")
        xi = BinVector.from_bits(x)
        logical = self.logical.mul_vec(xi) if self.logical is not None else None
        return DecodeOutcome(xi=xi, logical=logical, converged=converged, iterations=iters)


# ---------------------------------------------------------------------------
# Min-sum on a stack of independent problems
# ---------------------------------------------------------------------------

# Edges one stack of coset problems may hold (coset_minimum_trials).
# Measured with tracemalloc, a run peaks at about 54 bytes an edge on a
# lone bb144/12 side and about 72 on a stack of 40 small coset problems,
# so a stack's working set stays under 10 MB.
_BATCH_EDGES = 1 << 17

# q is computed from the LLRs clipped at this magnitude, where it is
# 1/(1 + e^500) = 7.1e-218 or 1 minus that; a problem whose every |LLR|
# has reached it stops (see bp_marginals_batch).
_LLR_CLIP = 500.0


def bp_marginals_batch(
    problems: Sequence[tuple[BPOSDDecoder, np.ndarray]],
) -> list[tuple[np.ndarray, np.ndarray, bool, int]]:
    """Min-sum BP on independent (decoder, syndrome) problems side by side.

    Returns each problem's (q, hard_decision, converged, iterations), in
    input order, byte for byte what a lone run of that problem returns
    (see :meth:`BPOSDDecoder.bp_marginals`).  The problems share one
    ``BPConfig`` and one shape, rows x cols; each keeps its own matrix,
    priors and syndrome, and every check of every matrix has an edge
    (see :class:`BPOSDDecoder`).  The stack holds at least one problem,
    and the caller bounds its edges: all of them are held at once.

    The problems' edges are concatenated, problem after problem, each in
    its decoder's check-major order, with problem k's variable ids
    offset by k * cols.  Every step of an iteration is then
    elementwise, a reduction over one check's edges, or a per-variable
    sum that ``np.bincount`` adds in edge order, so each variable's sum
    takes the same terms in the same order as in a lone run, and no
    problem's messages depend on another's.  That is why the results
    are byte-identical.  The stack never shrinks: a stopped problem
    iterates on until the last one stops, and its result is the one
    taken at its own stop.

    Each check sends every edge the smallest |v2c| among its other
    edges, clipped at 1e30, scaled by ``BPConfig.scale`` and negated
    when the check's syndrome bit and the signs of those other edges
    have odd parity; a check of degree 1 sends 0.  The arithmetic runs
    per check where it can, with three exact rewrites of the per-edge
    form:

    - Only the first edge holding the check's smallest magnitude min1
      gets the smallest of the others, min2; every other edge gets min1.
      When the minimum is shared, min2 equals min1, so the rule is that
      of a unique minimum.
    - The minimum commutes with the clip, so clipping min1 and min2
      gives what clipping every |v2c| gives.  Every |c2v| is then at most
      the scale times 1e30, and every v2c stays finite.
    - The scaled minima are negated per check where the parity of all
      its edges' signs and its syndrome bit is odd, repeated onto the
      edges, and negated again where the edge's own v2c is negative.
      Negation is exact, so two of them equal one negation by the
      parity of the other edges, zeros included.

    A problem stops when it converges, at the cap, or, unconverged, at
    the first iteration where every one of its variables has |LLR| at
    least ``_LLR_CLIP``: its q, computed through that clip, is then
    fixed by the LLRs' signs.  This third stop is not exact: later
    iterations could still flip a sign.  In every circuit-distance
    trial checked it fires with all LLRs positive, near iteration 45 on
    bb72/6, 60 on bb144/12 and 78 on bb288/18, instead of at their cap
    of 300.  It never fired in the shot decodes checked, ``bbqec run``
    on bb72/6 at p = 0.004 and on bb144/12 at p = 0.005 with BP caps of
    100 and of the default 10000: there the smallest |LLR| of a side
    that ran to 10000 never exceeded 5.5 at any iteration.  In the
    code-level coset trials checked, at their cap of 300, it never
    exceeded 17.  The prior LLR of a variable without edges also stays
    below the clip.

    Raises:
        ValueError: a syndrome's length differs from its matrix's row
            count, or the problems' ``BPConfig`` or shapes differ.
    """
    decs = [dec for dec, _ in problems]
    syndromes = []
    for dec, syndrome in problems:
        if dec.bp_cfg != decs[0].bp_cfg:
            raise ValueError("a stack's problems must share one BPConfig")
        if dec.matrix.rows != decs[0].matrix.rows or dec.matrix.cols != decs[0].matrix.cols:
            raise ValueError("a stack's problems must share one shape")
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        if syndrome.shape != (dec.matrix.rows,):
            raise ValueError("syndrome length mismatch")
        syndromes.append(syndrome)
    cfg, cols = decs[0].bp_cfg, decs[0].matrix.cols
    edge_var = np.concatenate([dec.edge_var + k * cols for k, dec in enumerate(decs)])
    deg = np.concatenate([dec.degree for dec in decs])
    ss = np.cumsum(deg) - deg
    syn = np.concatenate(syndromes)
    prior_llr = np.concatenate([dec.prior_llr for dec in decs])

    c2v = np.zeros(edge_var.size)
    llr_edge = np.take(prior_llr, edge_var)
    mags = np.empty(edge_var.size)
    out: list = [None] * len(decs)
    done = np.zeros(len(decs), dtype=bool)
    for it in count(1):
        np.subtract(llr_edge, c2v, out=mags)
        neg = mags < 0
        np.abs(mags, out=mags)
        min1 = np.minimum.reduceat(mags, ss)
        # each check's first edge at its minimum: every check has one, so
        # the first candidate at or past a check's start is its own
        cand = np.flatnonzero(mags == np.repeat(min1, deg))
        first = cand[np.searchsorted(cand, ss)]
        mags[first] = np.inf
        min2 = np.minimum.reduceat(mags, ss)
        min2[np.isinf(min2)] = 0.0  # a check of degree 1 sends nothing
        odd = (np.bitwise_xor.reduceat(neg.view(np.uint8), ss) ^ syn).view(bool)
        for m in (min1, min2):
            np.minimum(m, 1e30, out=m)
            m *= cfg.scale
            np.negative(m, out=m, where=odd)
        c2v = np.repeat(min1, deg)
        c2v[first] = min2
        np.negative(c2v, out=c2v, where=neg)
        llr_total = prior_llr + np.bincount(edge_var, weights=c2v, minlength=prior_llr.size)
        np.take(llr_total, edge_var, out=llr_edge, mode="clip")
        # converged: the hard decision reproduces the syndrome on every check
        wrong = np.bitwise_xor.reduceat((llr_edge < 0).view(np.uint8), ss) != syn
        converged = ~wrong.reshape(len(decs), -1).any(axis=1)
        # saturated: q, clipped at _LLR_CLIP, no longer depends on the LLRs' sizes
        saturated = np.abs(llr_total).reshape(len(decs), -1).min(axis=1) >= _LLR_CLIP
        stop = (converged | saturated | (it == cfg.max_iters)) & ~done
        for k in np.flatnonzero(stop):
            llr = llr_total[k * cols : (k + 1) * cols]
            hard = (llr < 0).astype(np.uint8)
            q = 1.0 / (1.0 + np.exp(np.clip(llr, -_LLR_CLIP, _LLR_CLIP)))
            out[k] = (q, hard, bool(converged[k]), it)
        done |= stop
        if done.all():
            return out


# ---------------------------------------------------------------------------
# Distance upper bounds
# ---------------------------------------------------------------------------

_DISTANCE_BP = BPConfig(max_iters=300, scale=0.625)
_DISTANCE_OSD = OSDConfig(sweep_depth=30)
_REDUCE_PASSES = 8  # sweeps of single-row moves in reduce_weight_modulo_rows
_DESCENT_PAIRS = 400  # rows whose pairs descend_modulo_rows scans


@dataclass
class DistanceEstimate:
    """The lightest witness of a randomized distance bound, and every trial's weight."""

    witness: BinVector
    weights: list[int]

    @property
    def upper_bound(self) -> int:
        return self.witness.weight


def reduce_weight_modulo_rows(v: BinVector, mat: BinMatrix) -> BinVector:
    """Greedy weight reduction of v by XORing rows of mat.

    Single-row moves only, each taken as soon as it lowers the weight;
    used to shrink coset representatives so that they make useful
    (sparse) check nodes for belief propagation.  Vectors are Python
    ints, weights ``int.bit_count``.
    """
    rows = int_rows(mat.words)
    x = int_rows(v.words)[0]
    w = x.bit_count()
    for _ in range(_REDUCE_PASSES):
        improved = False
        for r in rows:
            cand = x ^ r
            if cand.bit_count() < w:
                x, w = cand, cand.bit_count()
                improved = True
        if not improved:
            break
    return BinVector.from_int(v.n, x)


def descend_modulo_rows(v: BinVector, mat: BinMatrix) -> BinVector:
    """Local minimum of |v| under XOR with rows (and row pairs) of mat.

    Candidate rows are the ones overlapping the current support, which
    is where a weight drop is possible, tried by falling overlap (ties
    by row); the first move that lowers the weight is taken.  Pairs are
    scanned among the ``_DESCENT_PAIRS`` highest-overlap rows once
    singles are exhausted.  Vectors are Python ints, weights
    ``int.bit_count``.
    """
    rows = int_rows(mat.words)
    x = int_rows(v.words)[0]
    w = x.bit_count()
    improved = True
    while improved:
        improved = False
        overlap = [(r & x).bit_count() for r in rows]
        by_overlap = sorted(range(len(rows)), key=lambda i: -overlap[i])
        for i in by_overlap:
            if overlap[i] < 2:
                break
            cand = x ^ rows[i]
            if cand.bit_count() < w:
                x, w = cand, cand.bit_count()
                improved = True
                break
        if improved:
            continue
        touching = [i for i in range(len(rows)) if overlap[i] >= 1]
        if len(touching) > _DESCENT_PAIRS:
            touching = sorted(touching, key=lambda i: -overlap[i])[:_DESCENT_PAIRS]
        for a, b in combinations(touching, 2):
            cand = x ^ rows[a] ^ rows[b]
            if cand.bit_count() < w:
                x, w = cand, cand.bit_count()
                improved = True
                break
    return BinVector.from_int(v.n, x)


def _random_kernel_logical(
    rng: np.random.Generator, kernel_basis: BinMatrix, rowspace: BinMatrix
) -> BinVector:
    """Uniform element of ker \\ rowspace by rejection sampling.

    ``rowspace`` is the matrix whose row space is excluded; its cached
    RREF serves every draw.
    """
    for _ in range(10000):
        coeff = rng.integers(0, 2, kernel_basis.rows, dtype=np.uint8)
        if not coeff.any():
            continue
        eta = BinMatrix.from_dense(coeff).mul_mat(kernel_basis).row(0)
        if not rowspace.in_rowspace(eta):
            return eta
    raise RuntimeError("could not sample a logical representative")


class _CosetDecoder(BPOSDDecoder):
    """The decoder of one coset problem: xi in ker kernel_mat with eta . xi = 1.

    Its matrix is [kernel_mat; eta] and its syndrome e_last; every
    column has prior 0.01, and so log weight 1.  OSD's elimination starts
    from kernel_mat's cached RREF where it can (:meth:`_reduce`), so the
    trials on one matrix eliminate it once, and its edges extend
    kernel_mat's cached ``csr`` view (``BinMatrix.append_row``).
    """

    def __init__(self, kernel_mat: BinMatrix, eta: BinVector):
        stacked = kernel_mat.append_row(eta)
        super().__init__(stacked, np.full(stacked.cols, 0.01), bp=_DISTANCE_BP,
                         osd=_DISTANCE_OSD)
        self.kernel_mat, self.eta = kernel_mat, eta

    def _reduce(self, syndrome: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, ...]:
        """OSD's elimination, as one row added to kernel_mat's RREF.

        The update needs the syndrome e_last and the index order: q must
        never rise along the columns, so that ``argsort(-q, stable)`` is
        0..n-1, the order in which ``rref`` caches its result.  In the
        circuit-distance trials BP saturates and q is one value on every
        column, so every trial takes it.  Any other input, every shot
        decode among them, runs :meth:`BPOSDDecoder._reduce`.

        eta is reduced by the RREF rows at its pivot bits, and the first
        set column of the result is the new pivot.  The new row, with
        syndrome bit 1, is XORed into the rows set at that column, which
        puts their syndrome bits at 1, and inserted in pivot order.  The
        result is the RREF of [kernel_mat; eta | e_last] under the index
        order: its rows are the one basis of that row space with an
        identity at its pivot columns, and with the syndrome in the
        column space every row of the full elimination below them is
        zero.  So red_t, pivots and nonpivot equal that elimination's
        byte for byte.

        Raises:
            DecodingError: eta lies in the row space of kernel_mat, so
                the syndrome is not in the column space.
        """
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        if not syndrome[-1] or syndrome[:-1].any() or (np.diff(q) > 0).any():
            return super()._reduce(syndrome, q)
        n = self.matrix.cols
        R, kernel_pivots = self.kernel_mat.rref()
        rank = len(kernel_pivots)
        rows = R.words[:rank]
        new = self.kernel_mat.row_residue(self.eta)
        if not new.any():
            raise DecodingError("syndrome is not in the column space of D")
        k = int(np.flatnonzero(new)[0])
        low = int(new[k]) & -int(new[k])
        col = k * WORD + low.bit_length() - 1  # the new pivot
        at = bisect_left(kernel_pivots, col)  # its row, in pivot order
        W = np.zeros((rank + 1, nwords(n + 1)), dtype=np.uint64)
        W[:, : new.size] = np.insert(rows, at, new, axis=0)
        W[at, n // WORD] |= np.uint64(1) << np.uint64(n % WORD)
        hit = np.flatnonzero(W[:, k] & np.uint64(low))
        hit = hit[hit != at]
        W[hit] ^= W[at]
        red_t = BinMatrix(rank + 1, n + 1, W).transpose().words
        pivots = np.insert(np.array(kernel_pivots, dtype=np.int64), at, col)
        is_pivot = np.zeros(n, dtype=bool)
        is_pivot[pivots] = True
        return red_t, pivots, np.flatnonzero(~is_pivot)


def _coset_problem(kernel_mat: BinMatrix, eta: BinVector) -> tuple[BPOSDDecoder, np.ndarray]:
    """Decoder and syndrome of |xi| minimization with kernel_mat xi = 0, eta . xi = 1."""
    dec = _CosetDecoder(kernel_mat, eta)
    syndrome = np.zeros(dec.matrix.rows, dtype=np.uint8)
    syndrome[-1] = 1
    return dec, syndrome


def coset_minimum_trials(
    rng: np.random.Generator, kernel_mat: BinMatrix, dual: BinMatrix, trials: int,
) -> list[tuple[BinVector, BinVector, BinVector]]:
    """Randomized searches for light logicals; returns (eta, xi, descended xi) per trial.

    Each eta is a random element of ker(dual) outside the row space of
    ``kernel_mat``, shrunk modulo those rows; xi is BP-OSD's light
    solution of kernel_mat xi = 0 with eta . xi = 1, and the last entry
    is xi descended modulo the rows of ``dual``.  Only the choice of eta
    draws from ``rng``, and every eta is drawn, in trial order, before
    BP runs; so the trials are those of one-at-a-time runs on the same
    stream.  BP runs for the etas side by side
    (:func:`bp_marginals_batch`), in stacks of consecutive trials that
    fit in ``_BATCH_EDGES`` edges even with the heaviest eta, so only
    one stack's decoders exist at once; each decode then finishes from
    its own marginals.
    """
    kernel_basis = BinMatrix.from_rows(dual.nullspace_basis())
    etas = [reduce_weight_modulo_rows(_random_kernel_logical(rng, kernel_basis, kernel_mat),
                                      kernel_mat)
            for _ in range(trials)]
    xis: list[BinVector] = []
    # a problem's edges are kernel_mat's and eta's, known before its decoder is built
    heaviest = max((kernel_mat.nnz + eta.weight for eta in etas), default=1)
    per_stack = max(1, _BATCH_EDGES // heaviest)
    for lo in range(0, trials, per_stack):
        problems = [_coset_problem(kernel_mat, eta) for eta in etas[lo : lo + per_stack]]
        marginals = bp_marginals_batch(problems)
        xis += [dec.decode(syndrome, m).xi for (dec, syndrome), m in zip(problems, marginals)]
    return [(eta, xi, descend_modulo_rows(xi, dual)) for eta, xi in zip(etas, xis)]


def _lightest_witness(
    kernel_mat: BinMatrix, trials: Iterable[tuple[BinVector, BinVector]], what: str
) -> DistanceEstimate:
    """Check each trial's (eta, xi) as it comes and keep the lightest xi, the first on ties.

    Raises DecodingError when an xi is not in ker kernel_mat or has eta . xi = 0.
    """
    xis = []
    for eta, xi in trials:
        if not kernel_mat.mul_vec(xi).is_zero() or eta.dot(xi) != 1:
            raise DecodingError(f"distance witness is not {what}")
        xis.append(xi)
    return DistanceEstimate(min(xis, key=lambda xi: xi.weight), [xi.weight for xi in xis])


def distance_upper_bound(
    code: BBCode, trials: int, seed: int = 0, pauli: str = "Z"
) -> DistanceEstimate:
    """Randomized BP-OSD upper bound on the code distance.

    For Z-type distance, picks a random X-type logical eta (in ker HZ
    but not rs(HX)) and minimizes the weight of xi in ker HX with
    eta . xi = 1; every such xi is a Z-type logical, so the smallest
    weight seen across trials bounds the distance from above.  eta is
    first shrunk modulo rs(HX) so BP sees a sparse extra check, and the
    solution is locally descended modulo rs(HZ) (which preserves both
    constraints).

    Raises:
        ValueError: trials < 1 or a pauli other than "X" or "Z".
        DecodingError: a trial's witness is not a logical of that type.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    kernel_mat, dual = code.pauli_checks(pauli)
    found = coset_minimum_trials(np.random.default_rng(seed), kernel_mat, dual, trials)
    return _lightest_witness(kernel_mat, ((eta, xi) for eta, _, xi in found),
                             "a nontrivial logical")


def circuit_distance_upper_bound(side_model, trials: int, seed: int = 0) -> DistanceEstimate:
    """Randomized upper bound on the circuit-level distance of one side.

    ``side_model`` carries R, the detector matrix of one error type
    with its final block raw (``SideModel.readout_matrix``), and the
    logical-action matrix L.  R has the kernel of the model's matrix,
    but the BP-OSD trials are not invariant under the differencing of
    the final block: on the differenced rows bb144/12's bound rises from
    12 to 16-18.  eta is the XOR of a nonzero random subset of the rows
    of L and a random subset of the rows of R; any xi in ker R with
    eta . xi = 1 is an undetectable fault set with nontrivial logical
    action, so its weight bounds the circuit distance for this type.

    BP saturates in these trials with every LLR positive (see
    :func:`bp_marginals_batch`), so q is one value on every column: OSD
    ranks the columns in index order and only eta differs between
    trials.  That is the order of R's cached RREF, so OSD adds eta's row
    to it (``_CosetDecoder._reduce``) instead of eliminating [R; eta]: R
    is eliminated once per model, not once per trial.

    Raises:
        ValueError: trials < 1, or L has no rows, so that no eta has a
            logical part.
        DecodingError: a trial's witness is not in ker R or has
            eta . xi = 0.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    R: BinMatrix = side_model.readout_matrix
    L: BinMatrix = side_model.logical
    if L.rows == 0:
        raise ValueError("the side model has no logical rows")
    rng = np.random.default_rng(seed)

    def trial() -> tuple[BinVector, BinVector]:
        coeff_l = rng.integers(0, 2, L.rows, dtype=np.uint8)
        while not coeff_l.any():
            coeff_l = rng.integers(0, 2, L.rows, dtype=np.uint8)
        coeff_d = rng.integers(0, 2, R.rows, dtype=np.uint8)
        eta = BinVector(R.cols, np.bitwise_xor.reduce(L.words[coeff_l == 1], axis=0)
                        ^ np.bitwise_xor.reduce(R.words[coeff_d == 1], axis=0))
        # one trial at a time: a detector model's trial is bound by its
        # passes over tens of thousands of edges, which a stack does not cut
        dec, syndrome = _coset_problem(R, eta)
        return eta, dec.decode(syndrome).xi

    return _lightest_witness(R, (trial() for _ in range(trials)),
                             "an undetectable logical fault set")


# ---------------------------------------------------------------------------
# Exact distance for small codes
# ---------------------------------------------------------------------------


ENUMERATION_BUDGET = 1e9  # translation-reduced vectors exact_distance_small may enumerate


class BudgetExceeded(RuntimeError):
    """The enumeration guard refused to start; fall back to upper bounds."""


def exact_distance_small(
    code: BBCode, w_max: int, pauli: str = "Z"
) -> tuple[int | None, list[BinVector]]:
    """Certified minimum logical weight up to w_max, with every witness.

    Enumerates, exhaustively after quotienting by the lm translation
    symmetry, all weight <= w_max vectors in the check kernel and keeps
    those outside the opposite row space.  A meet-in-the-middle split
    over syndrome collisions keeps the search tractable.  Returns the
    minimum (None if there is no logical of weight <= w_max) and every
    logical representative found, not just the lightest.

    Raises:
        ValueError: a pauli other than "X" or "Z".
        BudgetExceeded: the guard estimate exceeds ``ENUMERATION_BUDGET``.
    """
    kernel_mat, rs_mat = code.pauli_checks(pauli)
    witnesses: list[BinVector] = []
    if w_max <= 0:
        return None, witnesses
    n, lm = code.n, code.lm
    est = sum(math.comb(n, w) for w in range(w_max + 1)) / lm
    if est > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"enumeration estimate {est:.2e} above {ENUMERATION_BUDGET:.2e}")

    # column j of kernel_mat as an integer, bit i = row i
    cols = int_rows(kernel_mat.transpose().words)

    half_hi = (w_max - 1 + 1) // 2  # extra elements alongside the anchor
    half_lo = (w_max - 1) // 2
    best: int | None = None
    seen: set[bytes] = set()

    for anchor in (0, lm):  # L-block identity, or R-block identity if L-free
        rest = range(anchor + 1, n)
        # hash side: subsets of size <= half_lo from the tail
        table: dict[int, list[tuple[int, ...]]] = {0: [()]}
        for size in range(1, half_lo + 1):
            for sub in combinations(rest, size):
                syn = 0
                for j in sub:
                    syn ^= cols[j]
                table.setdefault(syn, []).append(sub)
        # scan side: anchor plus subsets of size <= half_hi
        for size in range(0, half_hi + 1):
            for sub in combinations(rest, size):
                syn = cols[anchor]
                for j in sub:
                    syn ^= cols[j]
                buckets = table.get(syn)
                if not buckets:
                    continue
                s1 = {anchor, *sub}
                # a bucket shares s1's column XOR: each symmetric difference is in the kernel
                for other in buckets:
                    support = s1.symmetric_difference(other)
                    w = len(support)
                    if w == 0 or w > w_max:
                        continue
                    v = BinVector.from_support(n, support)
                    if v.key() in seen:
                        continue
                    if not rs_mat.in_rowspace(v):
                        seen.add(v.key())
                        witnesses.append(v)
                        if best is None or w < best:
                            best = w
    return best, witnesses
