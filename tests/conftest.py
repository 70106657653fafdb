"""Shared fixtures, built once per session: the logical bases of bb72 and
bb144, and their detector models with 6 and 12 cycles."""

import pytest

from bbqec.circuit import build_sm_circuit
from bbqec.code import catalog_code
from bbqec.logical import find_basis_polynomials
from bbqec.noise import build_detector_model


@pytest.fixture(scope="session")
def bases():
    """The basis ``find_basis_polynomials`` returns for bb72 and bb144, as its one-element list."""
    return {name: find_basis_polynomials(catalog_code(name)) for name in ("bb72", "bb144")}


@pytest.fixture(scope="session")
def model(bases):
    """bb72 with 6 cycles at p = 0.003; carries its code, basis and circuit."""
    code = catalog_code("bb72")
    return build_detector_model(build_sm_circuit(code, 6), 0.003, bases["bb72"][0])


@pytest.fixture(scope="session")
def model144(bases):
    """bb144 with 12 cycles at p = 0.001, the benchmark's model."""
    code = catalog_code("bb144")
    return build_detector_model(build_sm_circuit(code, 12), 0.001, bases["bb144"][0])
