"""Logical-operator machinery on bb72."""

from dataclasses import replace

import pytest

from bbqec.code import BivariatePoly
from bbqec.logical import BasisSearchError, build_ancilla_system

# Component sizes and kinds of the two planar halves of each ancilla
# system's base subgraph, components ordered by their smallest vertex.
PLANES = {
    "X": (([2] * 6 + [1] * 3, ["pair"] * 6 + ["isolated"] * 3),
          ([9, 3, 3], ["path"] * 3)),
    "Z": (([4, 6, 3, 2, 2, 1, 1, 1], ["path"] * 3 + ["pair"] * 2 + ["isolated"] * 3),
          ([4, 4, 4, 2, 3, 1, 1, 1], ["path"] * 3 + ["pair", "path"] + ["isolated"] * 3)),
}


def test_ancilla_plane_components(model):
    for target, (plane_a, plane_b) in PLANES.items():
        system = build_ancilla_system(model.code, model.basis, target, layers=3)
        assert (system.plane_a.sizes, system.plane_a.kinds) == plane_a, target
        assert (system.plane_b.sizes, system.plane_b.kinds) == plane_b, target


def test_validate_rejects_a_broken_basis(model):
    code, basis = model.code, model.basis
    basis.validate(code)
    # X(f + 1, 0) leaves ker HZ, since f B = 0 but (f + 1) B = B
    broken = replace(basis, f=basis.f + BivariatePoly.one(code.l, code.m))
    with pytest.raises(BasisSearchError, match="commute"):
        broken.validate(code)
