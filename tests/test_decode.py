import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from bbqec import decode
from bbqec.code import catalog_code
from bbqec.decode import (
    BPConfig,
    BPOSDDecoder,
    DecodingError,
    circuit_distance_upper_bound,
    distance_upper_bound,
    exact_distance_small,
)
from bbqec.gf2 import BinMatrix, BinVector
from bbqec.noise import sample_circuit_noise

SIDES = ("x", "z")

# SHA-256 over BP's (q, hard decision, converged, iterations) on six
# seed-5 shots of each side, BP cap 100.  It changes with any change to
# the min-sum arithmetic or its stopping rule; such a change must be
# deliberate and stated.
BP_SHA = "4ceb3a4b4838b8a8e88aa32d2d554b35f7b11239e9e64ce2ec486e32ebef248f"


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


def test_bp_marginals_golden(model, sides):
    batch = sample_circuit_noise(model.circuit, model.p, 6, 5, model.basis)
    h = hashlib.sha256()
    for side in SIDES:
        dec = sides[side][0]
        for syndrome in getattr(batch, f"{side}_syndromes"):
            q, hard, converged, iters = dec.bp_marginals(syndrome)
            h.update(q.tobytes())
            h.update(hard.tobytes())
            h.update(f"{converged} {iters}".encode())
    assert h.hexdigest() == BP_SHA


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


def test_distance_bounds_reject_a_witness_outside_the_kernel(monkeypatch):
    # a coset search that returns a vector with a nonzero syndrome
    monkeypatch.setattr(decode, "minimum_weight_in_coset",
                        lambda mat, eta, bp=None, osd=None: BinVector.from_support(mat.cols, [0]))
    with pytest.raises(DecodingError):
        distance_upper_bound(catalog_code("bb72"), trials=1)
    side = SimpleNamespace(matrix=BinMatrix.from_dense([[1, 1, 0]]),
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


def test_empty_last_row_of_d():
    # a check with no edges at the end of D must not end a reduceat segment list
    D = BinMatrix.from_dense([[1, 1, 0], [0, 0, 0]])
    for bp in (BPConfig(max_iters=5), BPConfig()):
        dec = BPOSDDecoder(D, np.full(3, 0.1), bp=bp)
        out = dec.decode(np.zeros(2, dtype=np.uint8))
        assert out.converged and out.xi.is_zero()
        # no hard decision sets the bit of an empty check, so BP stops at once
        unreachable = np.array([0, 1], dtype=np.uint8)
        assert dec.bp_marginals(unreachable)[2:] == (False, 0)
        with pytest.raises(DecodingError):
            dec.decode(unreachable)


def test_distance_searches_reject_an_unknown_pauli():
    code = catalog_code("bb72")
    with pytest.raises(ValueError):
        exact_distance_small(code, 1, pauli="Y")
    with pytest.raises(ValueError):
        distance_upper_bound(code, trials=1, pauli="Y")
