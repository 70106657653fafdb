from types import SimpleNamespace

import pytest

from bbqec import decode
from bbqec.code import catalog_code
from bbqec.decode import DecodingError, circuit_distance_upper_bound, distance_upper_bound
from bbqec.gf2 import BinMatrix, BinVector


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
