"""Syndrome-cycle schedules of bb144, the automorphism check of bb72, and the
frame walk's round check."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from bbqec.circuit import (
    CANONICAL_SCHEDULE,
    Schedule,
    ScheduledCircuit,
    build_automorphism_circuit,
    build_sm_circuit,
    enumerate_schedules,
    propagate_frames,
    shift_permutation,
    verify_automorphism,
    verify_sm_circuit,
)
from bbqec.code import catalog_code

GADGETS = [(kind, j, k) for kind in ("A", "B") for j in (1, 2, 3) for k in (1, 2, 3) if j != k]


@pytest.fixture(scope="module")
def bb144_schedules():
    return enumerate_schedules(catalog_code("bb144"))


def test_bb144_has_936_valid_schedules(bb144_schedules):
    code, schedules = catalog_code("bb144"), bb144_schedules
    assert len(schedules) == 936 == len(set(schedules))
    assert CANONICAL_SCHEDULE in schedules
    for schedule in schedules:
        assert verify_sm_circuit(schedule, code) is True, schedule

    # move X:A2 from round 2 to round 6 and X:A1 back: still a well formed
    # packing (both are A layers), but the cycle no longer measures the checks
    rounds = list(CANONICAL_SCHEDULE.rounds)
    (xa2, za3), (xa1, za2) = rounds[1], rounds[5]
    rounds[1], rounds[5] = (xa1, za3), (xa2, za2)
    swapped = Schedule(tuple(rounds))
    assert swapped.structural_problems() == []
    assert swapped not in schedules
    assert verify_sm_circuit(swapped, code) is False


def test_every_bb144_schedule_builds_a_circuit(bb144_schedules):
    # in rounds 1 and 7 the lone layer's family decides which data
    # register idles; every unitary round touches each qubit exactly once
    code = catalog_code("bb144")
    everyone = np.arange(4 * code.lm)
    families = set()
    for schedule in bb144_schedules:
        circ = build_sm_circuit(code, 1, schedule)
        for rid in range(1, 8):
            steps = [s for s in circ.steps if s.round_id == rid]
            touched = np.concatenate([q for s in steps for q in (s.qubits, s.targets)
                                      if q is not None])
            assert np.array_equal(np.sort(touched), everyone), (schedule, rid)
        families.add((schedule.rounds[0][0].family, schedule.rounds[6][0].family))
    assert families == {("A", "A"), ("B", "B")}


@pytest.mark.parametrize("name, cycles", [("bb72", 2), ("bb144", 3)])
def test_each_cycle_runs_one_cnot_per_tanner_edge_in_seven_rounds(name, cycles):
    """The abstract's claim: a depth-7 CNOT circuit on the degree-6 Tanner graph."""
    code = catalog_code(name)
    edges = [(check, data) for check, data, _ in code.tanner_edges()]
    assert len(set(edges)) == len(edges) == 12 * code.lm
    degree = Counter(v for edge in edges for v in edge)
    assert len(degree) == 4 * code.lm and set(degree.values()) == {6}
    circ = build_sm_circuit(code, cycles)
    per_cycle = [[] for _ in range(cycles)]
    for step in circ.steps:
        if step.kind == "cnot":
            cycle, rnd = divmod(step.round_id - 1, 8)
            assert rnd < 7, step.round_id  # round 8 of a cycle holds no CNOT
            # check qubits (registers X, Z) have higher ids than data qubits (L, R)
            pairs = zip(step.qubits, step.targets)
            per_cycle[cycle] += [(int(max(a, b)), int(min(a, b))) for a, b in pairs]
    for cnots in per_cycle:
        assert sorted(cnots) == sorted(edges)


def test_verify_sm_circuit_needs_seven_rounds():
    code = catalog_code("bb72")
    rounds = CANONICAL_SCHEDULE.rounds
    assert verify_sm_circuit(CANONICAL_SCHEDULE, code)
    # dropping round 7 loses X:A3; a trailing empty round keeps every
    # layer and the replay, but the cycle has 7 unitary rounds only
    for schedule in (Schedule(rounds[:6]), Schedule(rounds + ((),))):
        assert schedule.structural_problems()
        assert verify_sm_circuit(schedule, code) is False


@pytest.mark.parametrize("kind,j,k", GADGETS)
def test_verify_automorphism_accepts_gadget_shifts(model, kind, j, k):
    code, basis = model.circuit.code, model.basis
    shift = build_automorphism_circuit(code, kind, j, k).shift
    assert verify_automorphism(code, shift, basis=basis)
    # the same shift with two data qubits exchanged afterwards
    perm = shift_permutation(code, shift)
    perm[[0, 1]] = perm[[1, 0]]
    assert not verify_automorphism(code, shift, data_permutation=perm, basis=basis)
    # the identity keeps both check matrices but not the claimed logical action
    assert verify_automorphism(code, data_permutation=np.arange(code.n))
    assert not verify_automorphism(code, shift, data_permutation=np.arange(code.n), basis=basis)


def test_verify_automorphism_rejects_a_data_swap(model):
    perm = np.arange(model.circuit.code.n)
    perm[[0, 1]] = perm[[1, 0]]
    assert not verify_automorphism(model.circuit.code, data_permutation=perm)


def test_frame_walk_rejects_a_round_that_touches_a_qubit_twice(model):
    circ = model.circuit
    # step 0 initializes q(Z) and step 1 is a CNOT layer into q(Z); in
    # one round they touch each q(Z) qubit twice
    steps = [circ.steps[0], replace(circ.steps[1], round_id=circ.steps[0].round_id),
             *circ.steps[2:]]
    merged = ScheduledCircuit(code=circ.code, n_cycles=circ.n_cycles, steps=steps)
    with pytest.raises(ValueError, match="touched twice"):
        propagate_frames(merged, 1)
