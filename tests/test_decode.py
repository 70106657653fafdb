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

SIDES = ("x", "z")


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


def test_empty_last_row_of_d():
    # a check with no edges at the end of D must not end a reduceat segment list
    dec = BPOSDDecoder(BinMatrix.from_dense([[1, 1, 0], [0, 0, 0]]), np.full(3, 0.1),
                       bp=BPConfig(max_iters=5))
    out = dec.decode(np.zeros(2, dtype=np.uint8))
    assert out.converged and out.xi.is_zero()
    with pytest.raises(DecodingError):
        dec.decode(np.array([0, 1], dtype=np.uint8))


def test_distance_searches_reject_an_unknown_pauli():
    code = catalog_code("bb72")
    with pytest.raises(ValueError):
        exact_distance_small(code, 1, pauli="Y")
    with pytest.raises(ValueError):
        distance_upper_bound(code, trials=1, pauli="Y")
