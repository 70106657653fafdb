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

# SHA-256 over osd_postprocess(syndrome, q) on the same shots, with q
# from bp_marginals; it changes with any change to OSD's column order,
# elimination or flip sweep.
OSD_SHA = "c4475bb072c6d12943ba267b9d4e3e06db178a2fa1941cab0ea0f6100a83afb7"

# SHA-256 over the trial weights and the witness of a 3-trial, seed-3
# circuit_distance_upper_bound on the Z side of the bb72, 6-cycle model.
DCIRC_SHA = "8e3741f66c81db8378a3630e030ba6da11d6076851053bf21e4f1caef9fe1bf1"


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
    """The six seed-5 shots that BP_SHA and OSD_SHA cover."""
    return sample_circuit_noise(model.circuit, model.p, 6, 5, model.basis)


def test_bp_marginals_golden(golden_shots, sides):
    h = hashlib.sha256()
    for side in SIDES:
        dec = sides[side][0]
        for syndrome in getattr(golden_shots, f"{side}_syndromes"):
            q, hard, converged, iters = dec.bp_marginals(syndrome)
            h.update(q.tobytes())
            h.update(hard.tobytes())
            h.update(f"{converged} {iters}".encode())
    assert h.hexdigest() == BP_SHA


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


def test_distance_bounds_need_a_trial(model):
    with pytest.raises(ValueError, match="need at least one trial"):
        distance_upper_bound(catalog_code("bb72"), trials=0)
    with pytest.raises(ValueError, match="need at least one trial"):
        circuit_distance_upper_bound(model.z, trials=0)


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
