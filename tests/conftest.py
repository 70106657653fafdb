"""Shared fixtures: the bb72, 6-cycle detector model is built once per session.

BLAS runs one thread, as in perfbench, before anything imports numpy:
OSD scores flips with float64 products whose last bits depend on the
BLAS thread count, and the pinned OSD digest must not.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from bbqec.circuit import build_sm_circuit
from bbqec.code import catalog_code
from bbqec.logical import find_basis_polynomials
from bbqec.noise import build_detector_model


@pytest.fixture(scope="session")
def model():
    """bb72 with 6 cycles at p = 0.003; carries its code, basis and circuit."""
    code = catalog_code("bb72")
    basis = find_basis_polynomials(code)[0]
    return build_detector_model(build_sm_circuit(code, 6), 0.003, basis)
