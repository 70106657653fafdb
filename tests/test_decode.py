import copy
import dataclasses
import hashlib
from itertools import combinations, count
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbqec import decode
from bbqec.code import catalog_code
from bbqec.decode import (
    BPConfig,
    BPOSDDecoder,
    DecodeOutcome,
    DecodingError,
    OSDConfig,
    bp_marginals_batch,
    circuit_distance_upper_bound,
    coset_minimum_trials,
    descend_modulo_rows,
    distance_upper_bound,
    exact_distance_small,
    reduce_weight_modulo_rows,
)
from bbqec.gf2 import BinMatrix, BinVector, int_rows
from bbqec.noise import sample_circuit_noise

SIDES = ("x", "z")

# SHA-256 over BP's (q, hard decision, converged, iterations) on each
# side of the six GOLDEN_FAULTS shots, BP cap 100 and the default memory
# 0.1.  It changes with any change to the min-sum arithmetic or its
# stopping rule; such a change must be deliberate and stated.
BP_SHA = "51976204fdf171ff752d37241af53beb69972028090c73afc9a26c52813854ab"

# The same digest without the memory term, BPConfig(max_iters=100, memory=0.0):
# BP_SHA's value before memory BP, so that memory 0 is pinned as exact.
BP_NO_MEMORY_SHA = "23228903f154825579d2b9f7d512b7132039f0e6b366285214841c8a3710afb8"

# SHA-256 over osd_postprocess(syndrome, q) on the same shots, with q
# from bp_marginals; it changes with any change to OSD's column order,
# elimination or flip sweep.
OSD_SHA = "7341cabec3cee467b926e7ef0c5eb292d7b9e89061b85bfa6508f18302d8c4aa"

# The fault ids of six bb72/6 shots at p = 0.003, forced into the
# decoder goldens' shots so that the sampler's random stream does not
# reach them.  They were once the sampler's seed-5 shots 0-5.
GOLDEN_FAULTS = [
    [1418, 4158, 5763, 5792, 7987, 14089, 20033, 20946, 21162, 25268,
     25825, 25955, 27564, 27860, 27958, 35075, 35116, 35855, 36277, 42256],
    [5494, 10900, 11673, 16223, 18390, 20537, 20922, 21762, 24591, 42066],
    [422, 7660, 11145, 13219, 13737, 14846, 16145, 31184, 42241],
    [18147, 21744, 25664, 31266, 34899],
    [6816, 13478, 16199, 20970, 21143, 21888, 24266, 25416, 25445, 28800,
     31044, 31200, 35208, 42122],
    [1084, 6856, 14717, 18719, 25476, 25670, 28012, 28828, 30521, 31528, 31886],
]

# SHA-256 over the trial weights and the witness of a 3-trial, seed-3
# circuit_distance_upper_bound on the Z side of the bb72, 6-cycle model.
DCIRC_SHA = "30014e634fab379b1e7c0322cf3b3245dfc67b80eae80c50d1cfbf52c5556f66"

# SHA-256 over (eta, xi, descended xi) of six seed-7 coset trials on
# bb72, first in distance_upper_bound's Z setting, then in the basis
# search's (g, h) setting; recorded with one trial at a time.
COSET_SHA = "efe105b1879e114cde8245712964060ed844273bd972db288d2fe4648294f6e3"


@pytest.fixture(scope="module")
def sides(model):
    """(decoder, dense D, dense L) of each side of the bb72, 6-cycle model."""
    out = {}
    for side in SIDES:
        sm = getattr(model, side)
        dec = BPOSDDecoder(sm.matrix, sm.priors, bp=BPConfig(max_iters=100), logical=sm.logical)
        out[side] = (dec, sm.matrix.to_dense(), sm.logical.to_dense())
    return out


def decode_failures(side, column_sets) -> list:
    """Column sets whose XOR syndrome decodes to a different logical action.

    Every decode must also return a solution of its syndrome.
    """
    dec, D, L = side
    failed = []
    for cols in column_sets:
        syndrome = D[:, cols].sum(axis=1) % 2
        out = dec.decode(syndrome)
        assert np.array_equal(D @ out.xi.to_bits() % 2, syndrome), cols
        if not np.array_equal(out.logical.to_bits(), L[:, cols].sum(axis=1) % 2):
            failed.append(cols)
    return failed


@pytest.mark.parametrize("side", SIDES)
def test_single_columns_decode_to_their_logical_action(sides, side):
    cols = np.random.default_rng(11).choice(sides[side][1].shape[1], size=30, replace=False)
    assert decode_failures(sides[side], [[int(j)] for j in cols]) == []


@pytest.mark.parametrize("side", SIDES)
def test_column_pairs_decode_to_their_logical_action(sides, side):
    # ordering OSD columns by max(q, 1 - q) instead of q fails several of these
    rng = np.random.default_rng(12)
    n = sides[side][1].shape[1]
    pairs = [[int(j) for j in rng.choice(n, size=2, replace=False)] for _ in range(40)]
    assert decode_failures(sides[side], pairs) == []


@pytest.fixture(scope="module")
def golden_shots(model):
    """The six shots that BP_SHA and OSD_SHA cover."""
    return sample_circuit_noise(model.circuit, model.p, 0, 0, model.basis,
                                forced_faults=GOLDEN_FAULTS, fault_table=model.fault_table)


def _bp_digest(shots, model, bp: BPConfig) -> str:
    h = hashlib.sha256()
    for side in SIDES:
        sm = getattr(model, side)
        dec = BPOSDDecoder(sm.matrix, sm.priors, bp=bp)
        for syndrome in getattr(shots, f"{side}_syndromes"):
            q, hard, converged, iters = dec.bp_marginals(syndrome)
            h.update(q.tobytes())
            h.update(hard.tobytes())
            h.update(f"{converged} {iters}".encode())
    return h.hexdigest()


def test_bp_marginals_golden(golden_shots, model):
    assert _bp_digest(golden_shots, model, BPConfig(max_iters=100)) == BP_SHA


def test_bp_marginals_golden_without_memory(golden_shots, model):
    bp = BPConfig(max_iters=100, memory=0.0)
    assert _bp_digest(golden_shots, model, bp) == BP_NO_MEMORY_SHA


def test_osd_postprocess_golden(golden_shots, sides):
    h = hashlib.sha256()
    for side in SIDES:
        dec = sides[side][0]
        for syndrome in getattr(golden_shots, f"{side}_syndromes"):
            q = dec.bp_marginals(syndrome)[0]
            h.update(dec.osd_postprocess(syndrome, q).tobytes())
    assert h.hexdigest() == OSD_SHA


def test_circuit_distance_golden(model):
    est = circuit_distance_upper_bound(model.z, trials=3, seed=3)
    h = hashlib.sha256(repr(est.weights).encode())
    h.update(est.witness.words.tobytes())
    assert h.hexdigest() == DCIRC_SHA


def test_circuit_distance_bp_stops_once_every_llr_is_clipped(model, monkeypatch):
    # the first coset problem of DCIRC_SHA's trials: every |LLR| passes
    # q's clip well before the cap, and q is then one value on every column
    problems = []

    class Recorded(decode._CosetDecoder):
        def __init__(self, kernel_mat, eta):
            super().__init__(kernel_mat, eta)
            problems.append(self)

    monkeypatch.setattr(decode, "_CosetDecoder", Recorded)
    circuit_distance_upper_bound(model.z, trials=1, seed=3)
    dec = problems[0]
    q, _, converged, iters = dec.bp_marginals(dec.syndrome)
    assert not converged and iters < decode._DISTANCE_BP.max_iters
    assert np.unique(q).size == 1


def test_shot_decodes_never_stop_saturated(model):
    # the saturation stop is the distance trials' (bp_marginals_batch): every
    # shot side that BP leaves unconverged runs to its cap, with memory or without
    batch = sample_circuit_noise(model.circuit, model.p, 200, 7, model.basis,
                                 fault_table=model.fault_table)
    for memory in (0.1, 0.0):
        capped = 0
        for side in SIDES:
            sm = getattr(model, side)
            dec = BPOSDDecoder(sm.matrix, sm.priors, bp=BPConfig(max_iters=100, memory=memory))
            for syndrome in getattr(batch, f"{side}_syndromes"):
                _, _, converged, iters = dec.bp_marginals(syndrome)
                assert converged or iters == 100
                capped += not converged
        assert capped > 0


def _no_elimination(*args, **kwargs):
    raise AssertionError("the one-row update eliminated the stacked matrix")


def _arrays(reduced) -> list:
    return [(a.dtype, a.shape, a.tobytes()) for a in reduced]


def _assert_update_equals_elimination(dec, syndrome, q, monkeypatch):
    """The coset decoder's _reduce takes the one-row update, with no
    elimination of the stacked matrix, and equals the full one byte for byte."""
    with monkeypatch.context() as m:
        m.setattr(BinMatrix, "append_col", _no_elimination)
        got = dec._reduce(syndrome, q)
    assert _arrays(got) == _arrays(BPOSDDecoder._reduce(dec, syndrome, q))
    return got


@pytest.mark.parametrize("side", SIDES)
def test_coset_update_equals_the_elimination_on_circuit_trials(model, side, monkeypatch):
    # circuit_distance_upper_bound's problems, with q from BP: one value on every column
    sm = getattr(model, side)
    D, L = sm.readout_matrix, sm.logical
    LD = L.stack(D)
    rng = np.random.default_rng(31)
    for _ in range(4):
        coeff = rng.integers(0, 2, LD.rows, dtype=np.uint8)
        coeff[0] = 1  # a nonzero logical part
        eta = BinMatrix.from_dense(coeff).mul_mat(LD).row(0)
        dec = decode._CosetDecoder(D, eta)
        q = dec.bp_marginals(dec.syndrome)[0]
        assert np.unique(q).size == 1
        _assert_update_equals_elimination(dec, dec.syndrome, q, monkeypatch)
    # a row of D has no logical part: no solution, on either path
    dec = decode._CosetDecoder(D, D.row(5))
    q = np.full(D.cols, 0.5)
    with monkeypatch.context() as m, pytest.raises(DecodingError):
        m.setattr(BinMatrix, "append_col", _no_elimination)
        dec._reduce(dec.syndrome, q)
    with pytest.raises(DecodingError):
        BPOSDDecoder._reduce(dec, dec.syndrome, q)


def test_coset_update_equals_the_elimination_on_random_matrices(monkeypatch):
    rng = np.random.default_rng(41)
    places = set()
    for trial in range(60):
        rows, cols = int(rng.integers(1, 40)), int(rng.choice([6, 63, 64, 65, 128, 150]))
        if trial % 2:  # a low-rank product
            k = int(rng.integers(1, min(rows, cols) + 1))
            dense = rng.integers(0, 2, (rows, k)) @ rng.integers(0, 2, (k, cols)) % 2
        else:
            dense = rng.integers(0, 2, size=(rows, cols))
        lead = int(rng.integers(0, 3))
        dense[:, :lead] = 0  # free columns before the first pivot
        for row in dense:  # every check needs an edge
            while not row.any():
                row[lead:] = rng.integers(0, 2, cols - lead)
        if trial % 2:  # rank below the row count: one row repeated
            dense = np.vstack([dense, dense[rng.integers(rows)]])
        kernel_mat = BinMatrix.from_dense(dense)
        pivots = kernel_mat.rref()[1]
        free = np.setdiff1d(np.arange(cols), pivots)
        # eta: a combination of the rows, plus e_c at a free column c and
        # random bits at the free columns after it, so that c is the new pivot
        eta = rng.integers(0, 2, len(dense)) @ dense % 2
        q = np.full(cols, 0.3) if trial % 3 else np.linspace(0.4, 0.1, cols)  # both index order
        if free.size:
            c = int(rng.choice(free))
            eta[c] ^= 1
            later = free[free > c]
            eta[later] ^= rng.integers(0, 2, later.size)
            places.add("before" if not pivots or c < pivots[0]
                       else "after" if c > pivots[-1] else "between")
        dec = decode._CosetDecoder(kernel_mat, BinVector.from_bits(eta))
        if not free.size:  # eta in the row space: no solution, on either path
            with monkeypatch.context() as m, pytest.raises(DecodingError):
                m.setattr(BinMatrix, "append_col", _no_elimination)
                dec._reduce(dec.syndrome, q)
            with pytest.raises(DecodingError):
                BPOSDDecoder._reduce(dec, dec.syndrome, q)
            places.add("row space")
            continue
        got = _assert_update_equals_elimination(dec, dec.syndrome, q, monkeypatch)
        assert got[1].size == len(pivots) + 1
    assert places == {"before", "between", "after", "row space"}


def test_coset_update_falls_back_outside_the_index_order(monkeypatch):
    code = catalog_code("bb72")
    kernel_basis = BinMatrix.from_rows(code.hx.nullspace_basis())
    eta = decode._random_kernel_logical(np.random.default_rng(3), kernel_basis, code.hz)
    dec = decode._CosetDecoder(code.hz, eta)
    syndrome = dec.syndrome
    calls = []
    append_col = BinMatrix.append_col

    def counted(self, bits):
        calls.append(1)
        return append_col(self, bits)

    monkeypatch.setattr(BinMatrix, "append_col", counted)
    q = np.full(code.n, 0.2)
    rises = q.copy()
    rises[40] = 0.3  # column 40 ranks first: not the index order
    x = np.zeros(code.n, dtype=np.uint8)
    x[[3, 30, 60]] = 1  # a syndrome other than e_last
    for q_in, syndrome_in, full in ((q, syndrome, 0), (rises, syndrome, 1),
                                    (q, dec._syndrome_of(x), 1)):
        got = dec._reduce(syndrome_in, q_in)
        assert len(calls) == full
        assert _arrays(got) == _arrays(BPOSDDecoder._reduce(dec, syndrome_in, q_in))
        calls.clear()
    assert dec._reduce(syndrome, rises)[1][0] == 40


def test_memory_converges_where_plain_min_sum_runs_to_its_cap(model):
    # one bb72/6 shot at p = 0.003, once seed 11's shot 262, forced as GOLDEN_FAULTS are
    shot = sample_circuit_noise(model.circuit, model.p, 0, 0, model.basis,
                                forced_faults=[[7890, 14449, 15009, 15521, 19517, 20970,
                                                22736, 24910]],
                                fault_table=model.fault_table)
    syndrome, sm = shot.x_syndromes[0], model.x
    outs = [BPOSDDecoder(sm.matrix, sm.priors, bp=BPConfig(max_iters=100, memory=memory),
                         logical=sm.logical).decode(syndrome) for memory in (0.0, 0.1)]
    assert (outs[0].converged, outs[0].iterations) == (False, 100)
    assert outs[1].converged
    assert sm.matrix.mul_vec(outs[1].xi).to_bits().tobytes() == syndrome.tobytes()
    assert np.array_equal(outs[1].logical.to_bits(), shot.logical_x[0])


def test_osd_runs_only_where_bp_fails(model, sides, monkeypatch):
    dec, D, _ = sides["z"]
    osd = BPOSDDecoder.osd_postprocess
    calls = []

    def no_osd(self, syndrome, q):
        raise AssertionError("OSD ran on a side that BP solved")

    monkeypatch.setattr(BPOSDDecoder, "osd_postprocess", no_osd)
    assert dec.decode(np.zeros(D.shape[0], dtype=np.uint8)).xi.is_zero()
    out = dec.decode(D[:, 0])
    assert out.converged
    assert out.iterations == dec.bp_marginals(D[:, 0])[3]
    assert np.array_equal(D @ out.xi.to_bits() % 2, D[:, 0])

    def counted_osd(self, syndrome, q):
        calls.append(1)
        return osd(self, syndrome, q)

    monkeypatch.setattr(BPOSDDecoder, "osd_postprocess", counted_osd)
    capped = BPOSDDecoder(model.z.matrix, model.z.priors, bp=BPConfig(max_iters=1))
    cols = np.random.default_rng(14).choice(D.shape[1], size=8, replace=False)
    syndrome = D[:, cols].sum(axis=1) % 2
    out = capped.decode(syndrome)
    assert not out.converged and calls == [1]
    assert out.iterations == capped.bp_marginals(syndrome)[3] == 1
    assert np.array_equal(D @ out.xi.to_bits() % 2, syndrome)


def sweep_flips(nonpivot, depth=30) -> list[np.ndarray]:
    """OSD's flip sets of widths 0, 1 and 2: order-0, every single, pairs among the top ``depth``."""
    pairs = np.array(list(combinations(nonpivot[:depth], 2)), dtype=np.int64).reshape(-1, 2)
    return [np.zeros((1, 0), dtype=np.int64), nonpivot[:, None], pairs]


def test_unit_weight_flips_are_scored_by_popcount(model):
    # the coset problems of the distance searches have uniform priors,
    # and so log weights of 1
    code = catalog_code("bb72")
    kernel_basis = BinMatrix.from_rows(code.hx.nullspace_basis())
    rng = np.random.default_rng(4)
    etas = [decode._random_kernel_logical(rng, kernel_basis, code.hz) for _ in range(2)]
    decs = [decode._CosetDecoder(code.hz, eta) for eta in etas]
    # and so has a circuit-distance trial's
    eta = model.z.logical.to_dense()[0] ^ model.z.matrix.to_dense()[3]
    decs.append(decode._CosetDecoder(model.z.matrix, BinVector.from_bits(eta)))
    for dec in decs:
        syndrome = dec.syndrome
        assert dec.unit_weights
        q = dec.bp_marginals(syndrome)[0]
        red_t, pivots, nonpivot = dec._reduce(syndrome, q)
        bits = np.unpackbits(red_t.view(np.uint8), axis=1, bitorder="little")
        assert 0 < pivots.size < bits.shape[1] and not bits[:, pivots.size :].any()
        weighed = copy.copy(dec)
        weighed.unit_weights = False  # the product of general weights
        for flips in sweep_flips(nonpivot):
            got = dec._flip_weights(red_t, pivots, flips)
            want = weighed._flip_weights(red_t, pivots, flips)
            assert got.dtype == want.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert np.array_equal(dec.osd_postprocess(syndrome, q), weighed.osd_postprocess(syndrome, q))
    assert not BPOSDDecoder(model.z.matrix, model.z.priors).unit_weights


def int_flip_weights(dec, red_t, pivots, flips) -> list[int]:
    """Python-int reference of ``_flip_weights``: XOR the rows, add the weights of set bits."""
    rows = int_rows(red_t)
    lw = [int(w) for w in dec.log_weights]
    out = []
    for f in flips.tolist():
        bits, total = rows[-1], sum(lw[j] for j in f)
        for j in f:
            bits ^= rows[j]
        while bits:
            low = bits & -bits
            total += lw[pivots[low.bit_length() - 1]]
            bits ^= low
        out.append(total)
    return out


def test_flip_weights_equal_the_int_reference(golden_shots, sides):
    for side in SIDES:
        dec = sides[side][0]
        lw = dec.log_weights
        assert not dec.unit_weights and np.array_equal(lw, np.rint(lw))
        assert (dec.matrix.cols + 2) * lw.max() < 2**53
        for syndrome in getattr(golden_shots, f"{side}_syndromes"):
            red_t, pivots, nonpivot = dec._reduce(syndrome, dec.bp_marginals(syndrome)[0])
            for flips in sweep_flips(nonpivot, depth=20):
                want = int_flip_weights(dec, red_t, pivots, flips)
                assert dec._flip_weights(red_t, pivots, flips).tolist() == want


def test_osd_output_does_not_depend_on_the_flip_block(golden_shots, sides, monkeypatch):
    def outputs() -> list[bytes]:
        out = []
        for side in SIDES:
            dec = sides[side][0]
            out += [dec.osd_postprocess(s, dec.bp_marginals(s)[0]).tobytes()
                    for s in getattr(golden_shots, f"{side}_syndromes")]
        return out

    want = outputs()
    monkeypatch.setattr(decode, "_FLIP_BLOCK", 7)
    assert outputs() == want


@pytest.mark.parametrize("first", [5, 6])
def test_an_exact_tie_between_single_flips_goes_to_the_first_in_sweep_order(first):
    # pivots 0-4 hold the syndrome; flipping 5 leaves {5, 0, 1} and
    # flipping 6 leaves {6, 2, 3}, each one column of weight x, y and z:
    # the float sums (x + y) + z and (y + z) + x differ in their last bit
    D = BinMatrix.from_dense(np.array([[1, 0, 0, 0, 0, 0, 1],
                                       [0, 1, 0, 0, 0, 0, 1],
                                       [0, 0, 1, 0, 0, 1, 0],
                                       [0, 0, 0, 1, 0, 1, 0],
                                       [0, 0, 0, 0, 1, 1, 1]]))
    px, py, pz = 0.011, 0.023, 0.037
    x, y, z = (np.log(1 / p) for p in (px, py, pz))
    assert (x + y) + z != (y + z) + x
    dec = BPOSDDecoder(D, np.array([px, py, py, pz, 1e-6, pz, px]))
    q = np.array([0.9] * 5 + ([0.5, 0.4] if first == 5 else [0.4, 0.5]))
    want = [0, 1, 5] if first == 5 else [2, 3, 6]
    assert np.flatnonzero(dec.osd_postprocess(np.ones(5, dtype=np.uint8), q)).tolist() == want


def test_decoder_rejects_non_finite_priors_and_weights():
    D = BinMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="priors must be finite"):
            BPOSDDecoder(D, np.array([0.1, bad, 0.1]))
    # a prior outside [0, 1] is no probability, and is not clipped into the interval
    for bad in (1.7, -0.3, 1 + 1e-15, -1e-300):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            BPOSDDecoder(D, np.array([0.1, bad, 0.1]))
    # a prior of 0 or 1 is floored, and its log weight stays finite
    assert np.isfinite(BPOSDDecoder(D, np.array([0.0, 1.0, 0.5])).log_weights).all()


def test_distance_bounds_reject_a_witness_outside_the_kernel(monkeypatch):
    # a coset decode, batched or lone, that returns a vector with a nonzero syndrome
    def outside(self, syndrome, marginals=None):
        return DecodeOutcome(BinVector.from_support(self.matrix.cols, [0]), None, False, 0)

    monkeypatch.setattr(BPOSDDecoder, "decode", outside)
    with pytest.raises(DecodingError):
        distance_upper_bound(catalog_code("bb72"), trials=1)
    side = SimpleNamespace(readout_matrix=BinMatrix.from_dense([[1, 1, 0]]),
                           logical=BinMatrix.from_dense([[0, 1, 1]]))
    with pytest.raises(DecodingError):
        circuit_distance_upper_bound(side, trials=1)


def test_distance_estimates_record_every_trial(model):
    # bb72 has distance 6, so no Z logical found can be lighter
    est = distance_upper_bound(catalog_code("bb72"), trials=3, seed=1)
    assert len(est.weights) == 3
    assert min(est.weights) == est.upper_bound == est.witness.weight >= 6
    est = circuit_distance_upper_bound(model.z, trials=2, seed=1)
    assert len(est.weights) == 2
    assert min(est.weights) == est.upper_bound == est.witness.weight


@pytest.mark.parametrize("pauli", ["X", "Z"])
def test_exact_distance_certifies_bb72(pauli):
    code = catalog_code("bb72")
    assert exact_distance_small(code, 5, pauli=pauli) == (None, [])
    best, witnesses = exact_distance_small(code, 6, pauli=pauli)
    assert best == 6 and witnesses
    kernel_mat, rs_mat = code.pauli_checks(pauli)
    rs_rank = rs_mat.rank()
    for v in witnesses:
        assert v.weight == 6
        assert kernel_mat.mul_vec(v).is_zero()
        assert rs_mat.append_row(v).rank() == rs_rank + 1


def test_circuit_distance_of_bb72_reaches_6(model):
    for side in (model.x, model.z):
        assert circuit_distance_upper_bound(side, trials=2, seed=0).upper_bound == 6


def test_distance_bounds_need_a_trial(model):
    with pytest.raises(ValueError, match="need at least one trial"):
        distance_upper_bound(catalog_code("bb72"), trials=0)
    with pytest.raises(ValueError, match="need at least one trial"):
        circuit_distance_upper_bound(model.z, trials=0)


def test_circuit_distance_needs_a_logical_row():
    # with no row of L no eta has a logical part, and drawing one would never end
    side = SimpleNamespace(readout_matrix=BinMatrix.from_dense([[1, 1, 0]]),
                           logical=BinMatrix(0, 3))
    with pytest.raises(ValueError, match="no logical rows"):
        circuit_distance_upper_bound(side, trials=1)


def test_bp_config_rejects_a_scale_outside_the_unit_interval():
    for bad in (0.0, -0.5, 1.0 + 1e-12, 2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="scale"):
            BPConfig(scale=bad)
    assert BPConfig().scale == 1.0 and BPConfig(scale=1e-3).scale == 1e-3


def test_bp_config_rejects_a_memory_outside_the_half_open_unit_interval():
    # at memory 1 a variable's total keeps no share of its prior
    for bad in (-1e-12, -0.5, 1.0, 2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="memory"):
            BPConfig(memory=bad)
    assert BPConfig().memory == 0.1 and BPConfig(memory=0.0).memory == 0.0
    assert decode._DISTANCE_BP.memory == 0.0


def test_configs_reject_a_fractional_count():
    # BP stops when its iteration count equals the cap, which 7.5 never does, so
    # such a cap bounds nothing: on a random 12 x 24 matrix BP ran 5,658 iterations
    for bad in (7.5, 0.5, float("inf"), float("nan"), 0, -3):
        with pytest.raises(ValueError, match="max_iters"):
            BPConfig(max_iters=bad)
    for bad in (2.5, float("inf"), float("nan"), -1):
        with pytest.raises(ValueError, match="sweep_depth"):
            OSDConfig(sweep_depth=bad)
    # a whole number of another type is kept, as an int
    assert type(BPConfig(max_iters=7.0).max_iters) is int
    assert type(OSDConfig(sweep_depth=np.int64(2)).sweep_depth) is int


def test_decoder_rejects_a_check_without_edges():
    # each check is one reduceat segment, which can be neither empty nor
    # start past the last edge
    full = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    for empty in (0, 1, 2):  # first, middle and last row
        dense = np.array(full, dtype=np.uint8)
        dense[empty] = 0
        with pytest.raises(ValueError, match="a 1 in each"):
            BPOSDDecoder(BinMatrix.from_dense(dense), np.full(3, 0.1))
    with pytest.raises(ValueError, match="a 1 in each"):
        BPOSDDecoder(BinMatrix(0, 3), np.full(3, 0.1))
    BPOSDDecoder(BinMatrix.from_dense(full), np.full(3, 0.1))


def test_decoder_rejects_priors_of_another_length():
    D = BinMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
    for n in (2, 4):
        with pytest.raises(ValueError, match="priors length"):
            BPOSDDecoder(D, np.full(n, 0.1))


def test_bp_rejects_a_syndrome_of_another_length():
    dec = BPOSDDecoder(BinMatrix.from_dense([[1, 1, 0], [0, 1, 1]]), np.full(3, 0.1))
    for n in (1, 3):
        bad = np.zeros(n, dtype=np.uint8)
        with pytest.raises(ValueError, match="syndrome length mismatch"):
            bp_marginals_batch([(dec, np.zeros(2, dtype=np.uint8)), (dec, bad)])
        with pytest.raises(ValueError, match="syndrome length mismatch"):
            dec.decode(bad)


def test_bp_rejects_a_stack_of_mixed_shapes():
    def problem(dense):
        dense = np.array(dense, dtype=np.uint8)
        return BPOSDDecoder(BinMatrix.from_dense(dense), np.full(dense.shape[1], 0.1)), dense[:, 0]

    square = problem([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    for other in ([[1, 1, 0], [0, 1, 1]], [[1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 1, 0]]):
        for stack in ([square, problem(other)], [problem(other), square]):
            with pytest.raises(ValueError, match="one shape"):
                bp_marginals_batch(stack)
    # one shape, other edges, as the coset problems of one kernel matrix
    assert len(bp_marginals_batch([square, problem([[1, 1, 1], [0, 1, 0], [1, 0, 1]])])) == 2


def test_syndrome_of_equals_the_packed_product(sides):
    """The edge-wise syndrome equals D x bit for bit."""
    rng = np.random.default_rng(4)
    dense = rng.integers(0, 2, size=(7, 90), dtype=np.uint8)
    for row in dense:  # every check needs an edge
        while not row.any():
            row[:] = rng.integers(0, 2, 90)
    decoders = [BPOSDDecoder(BinMatrix.from_dense(dense), np.full(90, 0.1))]
    decoders += [sides[side][0] for side in SIDES]
    for dec in decoders:
        for weight in (0, 1, 9, dec.matrix.cols // 2):
            x = np.zeros(dec.matrix.cols, dtype=np.uint8)
            x[rng.choice(dec.matrix.cols, size=weight, replace=False)] = 1
            want = dec.matrix.mul_vec(BinVector.from_bits(x)).to_bits()
            assert dec._syndrome_of(x).tobytes() == want.tobytes()


def test_distance_searches_reject_an_unknown_pauli():
    code = catalog_code("bb72")
    with pytest.raises(ValueError):
        exact_distance_small(code, 1, pauli="Y")
    with pytest.raises(ValueError):
        distance_upper_bound(code, trials=1, pauli="Y")


@pytest.fixture(scope="module")
def mixed_problems(model, sides):
    """(decoder, syndrome) problems of many sizes, outcomes and BP configs."""
    dec, D, _ = sides["z"]
    capped = BPOSDDecoder(model.z.matrix, model.z.priors, bp=BPConfig(max_iters=7))
    cols = np.random.default_rng(14).choice(D.shape[1], size=8, replace=False)
    code = catalog_code("bb72")
    kernel_basis = BinMatrix.from_rows(code.hx.nullspace_basis())
    eta = decode._random_kernel_logical(np.random.default_rng(2), kernel_basis, code.hz)
    coset = decode._CosetDecoder(code.hz, eta)
    tied = BPOSDDecoder(BinMatrix.from_dense([[1, 1, 0, 0], [0, 1, 1, 1], [1, 0, 0, 1]]),
                        np.full(4, 0.2))
    return [
        (coset, coset.syndrome),  # tied priors, runs to its cap of 300
        (dec, D[:, cols[:3]].sum(axis=1) % 2),  # converges early
        (capped, D[:, cols].sum(axis=1) % 2),  # stops at its cap of 7
        (tied, np.array([1, 0, 1], dtype=np.uint8)),
        (dec, np.zeros(D.shape[0], dtype=np.uint8)),  # zero syndrome
        (sides["x"][0], sides["x"][1][:, :3].sum(axis=1) % 2),
    ]


def _bp_bytes(result) -> tuple:
    q, hard, converged, iters = result
    return q.tobytes(), hard.tobytes(), converged, iters


def test_bp_batch_equals_lone_runs(mixed_problems):
    by_config: dict[tuple, list[int]] = {}
    for i, (dec, _) in enumerate(mixed_problems):
        by_config.setdefault(dataclasses.astuple(dec.bp_cfg), []).append(i)
    # the cap-100 stack stops problem 4 at once and problem 1 later
    assert by_config[dataclasses.astuple(BPConfig(max_iters=100))] == [1, 4, 5]
    assert len(by_config) == 4
    batch = [None] * len(mixed_problems)
    for group in by_config.values():
        for i, r in zip(group, bp_marginals_batch([mixed_problems[i] for i in group])):
            batch[i] = r
    lone = [dec.bp_marginals(syndrome) for dec, syndrome in mixed_problems]
    assert [_bp_bytes(r) for r in batch] == [_bp_bytes(r) for r in lone]
    outcomes = [(converged, iters) for _, _, converged, iters in batch]
    assert outcomes[0] == (False, 300) and outcomes[2] == (False, 7)
    assert outcomes[1][0] and 1 < outcomes[1][1] < 100
    assert outcomes[4] == (True, 1)
    # problems whose caps, scales or memories differ never share a stack
    rescaled, forgetful = copy.copy(mixed_problems[1][0]), copy.copy(mixed_problems[1][0])
    rescaled.bp_cfg = BPConfig(max_iters=100, scale=0.625)
    forgetful.bp_cfg = BPConfig(max_iters=100, memory=0.0)
    for pair in (mixed_problems[:2], mixed_problems[1:3],
                 [mixed_problems[1], (rescaled, mixed_problems[1][1])],
                 [mixed_problems[1], (forgetful, mixed_problems[1][1])]):
        with pytest.raises(ValueError, match="one BPConfig"):
            bp_marginals_batch(pair)


def test_batched_coset_trials_equal_sequential_ones(monkeypatch):
    code = catalog_code("bb72")
    h = hashlib.sha256()
    for kernel_mat, dual in (code.pauli_checks("Z"), (code.hz, code.hx)):
        batched = coset_minimum_trials(np.random.default_rng(7), kernel_mat, dual, 6)
        rng = np.random.default_rng(7)
        sequential = [coset_minimum_trials(rng, kernel_mat, dual, 1)[0] for _ in range(6)]
        assert batched == sequential
        with monkeypatch.context() as m:  # two problems per stack
            m.setattr(decode, "_BATCH_EDGES", 3 * kernel_mat.nnz)
            chunked = coset_minimum_trials(np.random.default_rng(7), kernel_mat, dual, 6)
        assert chunked == batched
        for trial in batched:
            for v in trial:
                h.update(v.words.tobytes())
    assert h.hexdigest() == COSET_SHA


def _min_sum_reference(dec, syndrome):
    """BP as documented, one check and one edge at a time.

    Each check sends each edge the smallest clipped |v2c| of its other
    edges (0 if there are none), scaled, and negated when the syndrome
    bit and the signs of those other edges have odd parity; each
    variable adds its messages from 0.0 in check order, then adds them
    to (1 - memory) times its prior plus memory times its previous total
    (the prior at the first iteration).  BP stops when the hard decision
    reproduces the syndrome, when every |LLR| has reached q's clip of
    500, or at its cap.
    Returns BP's (q, hard, converged, iterations) and whether any |v2c|
    exceeded the 1e30 clip.
    """
    D = dec.matrix.to_dense().astype(np.int64)
    n = D.shape[1]
    checks = [np.flatnonzero(row).tolist() for row in D]
    llr = [float(x) for x in dec.prior_llr]
    gamma = dec.bp_cfg.memory
    held = [(1 - gamma) * x for x in llr]
    c2v = {(c, v): 0.0 for c, vs in enumerate(checks) for v in vs}
    saturated = False
    for it in count(1):
        v2c = {(c, v): llr[v] - m for (c, v), m in c2v.items()}
        saturated |= any(abs(x) > 1e30 for x in v2c.values())
        for c, vs in enumerate(checks):
            for v in vs:
                others = [min(max(v2c[c, u], -1e30), 1e30) for u in vs if u != v]
                mag = min((abs(x) for x in others), default=0.0) * dec.bp_cfg.scale
                odd = (int(syndrome[c]) + sum(x < 0 for x in others)) % 2
                c2v[c, v] = -mag if odd else mag
        sums = [0.0] * n
        for (c, v), m in c2v.items():  # check-major: each variable's terms in check order
            sums[v] += m
        llr = [h + gamma * m + x for h, m, x in zip(held, llr, sums)]
        hard = np.array([x < 0 for x in llr], dtype=np.uint8)
        converged = np.array_equal(D @ hard % 2, syndrome)
        at_clip = min(abs(x) for x in llr) >= 500
        if converged or at_clip or it == dec.bp_cfg.max_iters:
            q = 1.0 / (1.0 + np.exp(np.clip(np.array(llr), -500, 500)))
            return (q, hard, converged, it), saturated


def _problem(dense, priors, syndrome, max_iters, scale=1.0, memory=0.1):
    dec = BPOSDDecoder(BinMatrix.from_dense(np.array(dense, dtype=np.uint8)),
                       np.array(priors, dtype=float), bp=BPConfig(max_iters, scale, memory))
    return dec, np.array(syndrome, dtype=np.uint8)


@st.composite
def min_sum_problems(draw, max_iters, scale, memory, rows, cols):
    """A small rows x cols (decoder, syndrome): rows of weight 1 and up,
    and priors often equal."""
    supports = draw(st.lists(st.sets(st.integers(0, cols - 1), min_size=1), min_size=rows,
                             max_size=rows))
    dense = [[int(j in sup) for j in range(cols)] for sup in supports]
    prior = st.sampled_from([0.01, 0.1, 0.25, 0.5]) | st.floats(1e-6, 0.5)
    priors = draw(st.lists(prior, min_size=cols, max_size=cols))
    syndrome = [draw(st.integers(0, 1)) for _ in supports]
    return _problem(dense, priors, syndrome, max_iters, scale, memory)


@st.composite
def min_sum_stacks(draw):
    """One to four small problems sharing a shape, a BP cap and the shot or
    the distance-trial (scale, memory), or either scale with a random memory."""
    max_iters = draw(st.integers(1, 30))
    scale, memory = draw(st.sampled_from([(1.0, 0.1), (0.625, 0.0)])
                         | st.tuples(st.sampled_from([1.0, 0.625]),
                                     st.floats(0, 1, exclude_max=True)))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    return draw(st.lists(min_sum_problems(max_iters, scale, memory, rows, cols),
                         min_size=1, max_size=4))


def _assert_kernel_matches_reference(problems):
    want = [_bp_bytes(_min_sum_reference(dec, syndrome)[0]) for dec, syndrome in problems]
    assert [_bp_bytes(r) for r in bp_marginals_batch(problems)] == want
    assert [_bp_bytes(dec.bp_marginals(syndrome)) for dec, syndrome in problems] == want


@settings(max_examples=60, deadline=None)
@given(min_sum_stacks())
def test_min_sum_matches_the_per_check_reference(problems):
    _assert_kernel_matches_reference(problems)


def test_min_sum_reference_cases():
    tied = _problem([[1, 1, 0, 0], [0, 1, 1, 1], [1, 0, 0, 1]], [0.2] * 4, [1, 0, 1], 30)
    # a check of degree 1
    lone = _problem([[1, 1, 1, 0], [0, 0, 1, 0], [1, 0, 0, 1]], [0.1, 0.1, 0.3, 0.05],
                    [1, 1, 0], 30)
    # two groups of eight equal checks that disagree, sharing column 2:
    # the messages grow past the clip, and column 2's clipped messages of
    # opposite signs cancel exactly, where unclipped ones would not; the
    # edge-free column 3 keeps its prior LLR, so BP runs to its cap
    saturating = _problem([[1, 0, 1, 0]] * 8 + [[0, 1, 1, 0]] * 8, [0.1] * 4,
                          [1, 1, 0, 0, 0, 0, 0, 0] * 2, 105)
    # the same checks without column 3: every |LLR| reaches 500 at
    # iteration 6, and BP stops there, unconverged
    at_clip = _problem([[1, 0, 1]] * 8 + [[0, 1, 1]] * 8, [0.1] * 3,
                       [1, 1, 0, 0, 0, 0, 0, 0] * 2, 105)
    cases = [tied, lone, saturating, at_clip]
    results = [_min_sum_reference(*case) for case in cases]
    assert [past_1e30 for _, past_1e30 in results] == [False, False, True, False]
    assert [r[2:] for r, _ in results[2:]] == [(False, 105), (False, 6)]
    for stack in (cases[:2], cases[2:3], cases[3:]):  # one stack per cap and shape
        _assert_kernel_matches_reference(stack)


def _reduce_reference(v, mat):
    """reduce_weight_modulo_rows on BinVectors, as first written."""
    rows = [mat.row(i) for i in range(mat.rows)]
    for _ in range(decode._REDUCE_PASSES):
        improved = False
        for r in rows:
            if (v ^ r).weight < v.weight:
                v = v ^ r
                improved = True
        if not improved:
            break
    return v


def _descend_reference(v, mat):
    """descend_modulo_rows on BinVectors and a dense overlap product, as first written."""
    dense = mat.to_dense().astype(np.int64)
    rows = [mat.row(i) for i in range(mat.rows)]
    improved = True
    while improved:
        improved = False
        overlap = dense @ v.to_bits()
        for i in np.flatnonzero(overlap >= 2)[np.argsort(-overlap[overlap >= 2], kind="stable")]:
            if (v ^ rows[i]).weight < v.weight:
                v, improved = v ^ rows[i], True
                break
        if improved:
            continue
        touching = np.flatnonzero(overlap >= 1)
        top = decode._DESCENT_PAIRS
        if len(touching) > top:
            touching = touching[np.argsort(-overlap[touching], kind="stable")][:top]
        for a, b in combinations(touching.tolist(), 2):
            if (v ^ rows[a] ^ rows[b]).weight < v.weight:
                v, improved = v ^ rows[a] ^ rows[b], True
                break
    return v


@pytest.mark.parametrize("name, pairs", [("bb72", None), ("bb144", None), ("bb144", 5)])
def test_row_moves_match_the_vector_reference(name, pairs, monkeypatch):
    if pairs is not None:  # few enough that the pair scan keeps only the top rows
        monkeypatch.setattr(decode, "_DESCENT_PAIRS", pairs)
    code = catalog_code(name)
    rng = np.random.default_rng(21)
    for _ in range(20):
        v = BinVector.from_bits(rng.random(code.n) < 0.2)
        assert reduce_weight_modulo_rows(v, code.hz) == _reduce_reference(v, code.hz)
        assert descend_modulo_rows(v, code.hx) == _descend_reference(v, code.hx)
