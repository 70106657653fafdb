"""Syndrome-cycle schedules of bb144, the automorphism gadgets and their check,
a circuit's round checks, and the input checks of the circuit builders."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from bbqec.circuit import (
    CANONICAL_SCHEDULE,
    Schedule,
    ScheduledCircuit,
    Step,
    automorphism_data_permutation,
    build_automorphism_circuit,
    build_sm_circuit,
    enumerate_schedules,
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
            touched = np.concatenate([q for s in circ.rounds[rid] for q in (s.qubits, s.targets)
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
    assert len(circ.rounds) == 8 * cycles + 1
    per_cycle = [[] for _ in range(cycles)]
    for rid, rnd in enumerate(circ.rounds):
        for step in rnd:
            if step.kind == "cnot":
                cycle, r = divmod(rid - 1, 8)
                assert r < 7, rid  # round 8 of a cycle holds no CNOT
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


def test_a_circuit_rejects_a_round_that_touches_a_qubit_twice(model):
    circ = model.circuit
    # round 0 initializes q(Z) and round 1 holds a CNOT layer into q(Z);
    # merged into one round they touch each q(Z) qubit twice
    rounds = [circ.rounds[0] + circ.rounds[1], *circ.rounds[2:]]
    with pytest.raises(ValueError, match="round 0: a qubit is touched twice"):
        ScheduledCircuit(circ.code, circ.n_cycles, rounds)


@pytest.mark.parametrize("name", ["bb72", "bb144"])
def test_automorphism_gadgets_run_at_cnot_depth_four(name):
    """Each gadget's two moves share six rounds, four of them CNOT rounds."""
    code = catalog_code(name)
    for kind, j, k in GADGETS:
        gadget = build_automorphism_circuit(code, kind, j, k)
        assert len(gadget.rounds) == 6, (kind, j, k)
        assert sum(any(s.kind == "cnot" for s in rnd) for rnd in gadget.rounds) == 4, (kind, j, k)
        ScheduledCircuit(code, 0, gadget.rounds)  # no round touches a qubit twice


@pytest.mark.parametrize("empty", [0, 3])
def test_a_circuit_rejects_a_round_without_steps(empty):
    code = catalog_code("bb72")
    rounds = [list(rnd) for rnd in build_sm_circuit(code, 1).rounds[:3]]
    rounds.insert(empty, [])
    with pytest.raises(ValueError, match=f"round {empty} has no steps"):
        ScheduledCircuit(code, 1, rounds)
    with pytest.raises(ValueError, match="round 0 has no steps"):
        ScheduledCircuit(code, 1, [[]])


def test_a_circuit_rejects_a_measured_qubit_touched_before_it_is_initialized():
    # round 7 measures q(Z) and round 8 initializes it again before round
    # 9's Z-side layer: without that initialization, a measurement fault
    # read as a frame flip would reach the next cycle
    code = catalog_code("bb72")
    rounds = [list(rnd) for rnd in build_sm_circuit(code, 2).rounds]
    assert [s.basis for s in rounds[8] if s.kind == "init"] == ["Z"]
    rounds[8] = [s for s in rounds[8] if s.kind != "init"]
    with pytest.raises(ValueError, match="round 9: a measured qubit is touched before it is"):
        ScheduledCircuit(code, 2, rounds)


def test_a_circuit_rejects_a_measured_data_qubit_left_uninitialized():
    # the final data frames hold q(L) and q(R), so a measurement fault on a
    # data qubit read as a frame flip would reach the final data error
    # unless the qubit is initialized again by the end
    code = catalog_code("bb72")
    measure = Step("meas", np.arange(code.lm), basis="Z")  # q(L)
    with pytest.raises(ValueError, match="a measured data qubit is not initialized again"):
        ScheduledCircuit(code, 1, [[measure]])
    ScheduledCircuit(code, 1, [[measure], [Step("init", measure.qubits, basis="Z")]])


def moved_layers(moves):
    """The canonical schedule with the layers at (round, slot) moved to
    the end of another round, rounds counted from 1, in the order given."""
    rounds = [list(rnd) for rnd in CANONICAL_SCHEDULE.rounds]
    for (r, slot), to in moves:
        rounds[to - 1].append(rounds[r - 1].pop(slot))
    return Schedule(tuple(tuple(rnd) for rnd in rounds))


@pytest.mark.parametrize("moves, problem", [
    # X:A2 joins X:A3 in round 7
    ([((2, 0), 7)], "round 7: more than one layer per ancilla side"),
    # X:A2 and X:B2 trade rounds, so rounds 2 and 3 each mix A and B
    ([((2, 0), 3), ((3, 0), 2)],
     "round 2: layers overlap on a data register; round 3: layers overlap on a data register"),
    # X:A3 moves from round 7 to round 1
    ([((7, 0), 1)], "round 1 is taken by the X-ancilla initialization"),
])
def test_schedule_packing_rules(moves, problem):
    schedule = moved_layers(moves)
    assert "; ".join(schedule.structural_problems()) == problem
    assert verify_sm_circuit(schedule, catalog_code("bb72")) is False
    with pytest.raises(ValueError, match=f"invalid schedule: {problem}"):
        build_sm_circuit(catalog_code("bb72"), 1, schedule)


@pytest.mark.parametrize("cycles", [0, -1])
def test_sm_circuit_needs_a_cycle(cycles):
    with pytest.raises(ValueError, match="need at least one syndrome cycle"):
        build_sm_circuit(catalog_code("bb72"), cycles)


@pytest.mark.parametrize("kind, j, k, message", [
    ("C", 1, 2, "kind must be 'A' or 'B'"),
    ("a", 1, 2, "kind must be 'A' or 'B'"),
    ("A", 2, 2, "j == k is the identity automorphism"),
    ("B", 3, 3, "j == k is the identity automorphism"),
])
def test_automorphism_circuit_rejects_bad_arguments(kind, j, k, message):
    with pytest.raises(ValueError, match=message):
        build_automorphism_circuit(catalog_code("bb72"), kind, j, k)


@pytest.mark.parametrize("drop, message", [
    # round 4's second step is the q(R) move's CNOT from q(Z) into its
    # target, so that move loses its data
    (4, "gadget does not implement a data permutation"),
    # the last round's second step carries the Z frames from q(Z) onto the
    # q(R) move's target; the X frames still permute, but not the Z frames
    (5, "X and Z frames disagree on the permutation"),
])
def test_data_permutation_rejects_a_broken_gadget(drop, message):
    gadget = build_automorphism_circuit(catalog_code("bb72"), "A", 1, 2)
    rounds = [list(rnd) for rnd in gadget.rounds]
    assert len(rounds[drop]) == 2
    rounds[drop] = rounds[drop][:1]
    with pytest.raises(ValueError, match=message):
        automorphism_data_permutation(dataclasses.replace(gadget, rounds=rounds))
