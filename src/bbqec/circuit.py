"""Syndrome-measurement circuits and their verification.

One syndrome cycle spans 8 rounds and measures every check once; the
unitary part is 7 rounds of CNOT layers, two per round at most.  Each
CNOT layer is a permutation along one polynomial term: X-ancilla-side
layers write from q(X) into a data register, Z-ancilla-side layers
write from a data register into q(Z).  Verification replays the layer
algebra symbolically on 4-register polynomial blocks, so it is exact
and independent of the code size.

Also here: the batched Pauli-frame propagation engine used by the
noise model, and the depth-4 move circuits realizing code
automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .code import REGISTERS, BBCode, BivariatePoly, Monomial, maps_rows_onto, translation_table
from .gf2 import BinVector, bit_masks, nwords, unpack_bits

REG_OFFSET = {r: i for i, r in enumerate(REGISTERS)}


# ---------------------------------------------------------------------------
# CNOT layers and schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class CNOTLayer:
    """One permutation layer of the syndrome cycle.

    side "X": controls q(X); an A-layer targets q(L), a B-layer q(R).
    side "Z": targets q(Z); an A-layer is controlled on q(R), a B-layer
    on q(L).
    """

    side: str  # "X" or "Z"
    family: str  # "A" or "B"
    index: int  # 1..3

    def registers(self) -> tuple[str, str]:
        """(control register, target register)."""
        if self.side == "X":
            return ("X", "L" if self.family == "A" else "R")
        return ("R" if self.family == "A" else "L", "Z")


ALL_LAYERS = [
    CNOTLayer(side, family, index)
    for side in ("X", "Z")
    for family in ("A", "B")
    for index in (1, 2, 3)
]


@dataclass(frozen=True)
class Schedule:
    """Assignment of the 12 CNOT layers to the 7 unitary rounds."""

    rounds: tuple[tuple[CNOTLayer, ...], ...]  # length 7, rounds 1..7

    def layers_in_order(self) -> list[CNOTLayer]:
        return [layer for rnd in self.rounds for layer in rnd]

    def structural_problems(self) -> list[str]:
        """Violations of the packing rules; empty list means well formed."""
        problems = []
        if sorted(self.layers_in_order()) != sorted(ALL_LAYERS):
            problems.append("each of the 12 layers must appear exactly once")
        if len(self.rounds) != 7:
            problems.append("expected 7 unitary rounds")
        for r, rnd in enumerate(self.rounds, start=1):
            x_side = [l for l in rnd if l.side == "X"]
            z_side = [l for l in rnd if l.side == "Z"]
            if len(x_side) > 1 or len(z_side) > 1:
                problems.append(f"round {r}: more than one layer per ancilla side")
            if x_side and z_side and x_side[0].family != z_side[0].family:
                problems.append(f"round {r}: layers overlap on a data register")
            if x_side and r == 1:
                problems.append("round 1 is taken by the X-ancilla initialization")
            if z_side and r == len(self.rounds):
                problems.append("the last unitary round is taken by the Z-ancilla readout")
        return problems


CANONICAL_SCHEDULE = Schedule(
    (
        (CNOTLayer("Z", "A", 1),),
        (CNOTLayer("X", "A", 2), CNOTLayer("Z", "A", 3)),
        (CNOTLayer("X", "B", 2), CNOTLayer("Z", "B", 1)),
        (CNOTLayer("X", "B", 1), CNOTLayer("Z", "B", 2)),
        (CNOTLayer("X", "B", 3), CNOTLayer("Z", "B", 3)),
        (CNOTLayer("X", "A", 1), CNOTLayer("Z", "A", 2)),
        (CNOTLayer("X", "A", 3),),
    )
)


def _layer_term(code: BBCode, layer: CNOTLayer) -> Monomial:
    poly = code.a_poly if layer.family == "A" else code.b_poly
    return poly.term(layer.index)


def layer_gates(code: BBCode, layer: CNOTLayer) -> tuple[np.ndarray, np.ndarray]:
    """(controls, targets) as global qubit ids, one CNOT per group element."""
    lm = code.lm
    idx = np.arange(lm)
    shifted = translation_table(code.l, code.m)[_layer_term(code, layer).index]
    creg, treg = layer.registers()
    return REG_OFFSET[creg] * lm + idx, REG_OFFSET[treg] * lm + shifted


# ---------------------------------------------------------------------------
# Scheduled circuits
# ---------------------------------------------------------------------------


@dataclass
class Step:
    """One operation layer of a round: a CNOT layer, or one-qubit operations."""

    kind: str  # "cnot" | "init" | "meas" | "idle"
    qubits: np.ndarray  # measured/initialized/idle qubits, or CNOT controls
    targets: np.ndarray | None = None  # CNOT targets
    basis: str | None = None  # "X" or "Z" for init/meas


@dataclass
class ScheduledCircuit:
    """A circuit as its list of depth-1 rounds, each a list of steps.

    A syndrome-measurement circuit for ``n_cycles`` cycles starts with
    round 0, the Z-ancilla initialization that precedes the first cycle
    (total depth 8*N_c + 1); the last cycle omits its trailing
    re-initialization.  Within any round every qubit is touched by at
    most one operation, and a measured qubit is initialized again before
    any later step touches it, a data qubit also by the end; one walk
    checks all three, once.  The last two make a measurement fault exactly
    a flip of the measured frame (see ``noise``).  ``steps`` is derived
    from the rounds when built, ``operands`` and ``frame_plan`` on first
    use, so the rounds must not change after that.

    Raises:
        ValueError: a round has no steps, touches some qubit twice, or
            touches a measured qubit that was not initialized again, or a
            measured data qubit is not initialized again by the end.
    """

    code: BBCode
    n_cycles: int
    rounds: list[list[Step]] = field(repr=False)
    # every step in round order; a fault's step is an index into this list
    steps: list[Step] = field(init=False, repr=False)

    def __post_init__(self):
        measured = np.zeros(4 * self.code.lm, dtype=bool)  # and not initialized since
        for r, rnd in enumerate(self.rounds):
            if not rnd:
                raise ValueError(f"round {r} has no steps")
            touched = np.concatenate(
                [q for s in rnd for q in (s.qubits, s.targets) if q is not None])
            if len(np.unique(touched)) != len(touched):
                raise ValueError(f"round {r}: a qubit is touched twice")
            # the round's steps touch disjoint qubits, so their order is moot
            for s in rnd:
                if s.kind == "init":
                    measured[s.qubits] = False
                elif any(q is not None and measured[q].any() for q in (s.qubits, s.targets)):
                    raise ValueError(
                        f"round {r}: a measured qubit is touched before it is initialized again")
                if s.kind == "meas":
                    measured[s.qubits] = True
        # registers L and R, the data qubits, come first
        if measured[: 2 * self.code.lm].any():
            raise ValueError("a measured data qubit is not initialized again by the end")
        self.steps = [step for rnd in self.rounds for step in rnd]

    @cached_property
    def operands(self) -> np.ndarray:
        """(2, operations): each operation's qubit or CNOT control, then its
        CNOT target or, for a one-qubit operation, the qubit again, in step
        order."""
        return np.array([
            np.concatenate([s.qubits for s in self.steps]),
            np.concatenate([s.qubits if s.targets is None else s.targets for s in self.steps]),
        ], dtype=np.int64)

    @cached_property
    def frame_plan(self) -> FramePlan:
        """The index arrays of the frame walk."""
        return FramePlan(self)


def build_sm_circuit(
    code: BBCode, n_cycles: int, schedule: Schedule = CANONICAL_SCHEDULE
) -> ScheduledCircuit:
    """Emit the syndrome-measurement circuit for the given schedule.

    Raises:
        ValueError: n_cycles < 1 or a structurally invalid schedule.
    """
    if n_cycles < 1:
        raise ValueError("need at least one syndrome cycle")
    problems = schedule.structural_problems()
    if problems:
        raise ValueError("invalid schedule: " + "; ".join(problems))

    reg = {r: REG_OFFSET[r] * code.lm + np.arange(code.lm) for r in REGISTERS}
    rounds = [[Step("init", reg["Z"], basis="Z")]]  # round 0: the first cycle's Z ancillas
    for t in range(1, n_cycles + 1):
        for r, layers in enumerate(schedule.rounds, start=1):
            rnd = [Step("cnot", *layer_gates(code, layer)) for layer in layers]
            if r == 1:
                rnd.append(Step("init", reg["X"], basis="X"))
            if r == 7:
                rnd.append(Step("meas", reg["Z"], basis="Z"))
            # a data register no layer of the round touches idles: in
            # rounds 1 and 7 the lone layer's family decides which
            busy = {name for layer in layers for name in layer.registers()}
            rnd += [Step("idle", reg[name]) for name in sorted({"L", "R"} - busy)]
            rounds.append(rnd)
        rnd = [Step("meas", reg["X"], basis="X")]
        if t < n_cycles:
            rnd.append(Step("init", reg["Z"], basis="Z"))
        rounds.append(rnd + [Step("idle", reg["L"]), Step("idle", reg["R"])])
    return ScheduledCircuit(code, n_cycles, rounds)


# ---------------------------------------------------------------------------
# Symbolic tableau verification
# ---------------------------------------------------------------------------


def verify_sm_circuit(schedule: Schedule, code: BBCode) -> bool:
    """Replay one unitary cycle on symbolic polynomial blocks.

    True iff the schedule is well formed and, exactly and without
    sampling:
      * the X-ancilla row evolves (I 0 0 0) -> (I A B 0),
      * the Z-ancilla row evolves (0 0 0 I) -> (0 B^T A^T I),
      * both code-check rows return to themselves,
      * logical operators are untouched (the q(Z) accumulation of a
        logical row (0 u w 0) equals u*B + w*A, which vanishes).
    """
    if schedule.structural_problems():
        return False
    zero = BivariatePoly.zero(code.l, code.m)
    one = BivariatePoly.one(code.l, code.m)
    A, B = code.a_poly, code.b_poly

    # blocks indexed by register order (X, L, R, Z) to match the algebra
    order = ("X", "L", "R", "Z")
    pos = {r: i for i, r in enumerate(order)}
    x_top = [one, zero, zero, zero]
    x_bot = [zero, A, B, zero]
    z_top = [zero, zero, zero, one]
    z_bot = [zero, B.T, A.T, zero]
    coeff_u = zero  # accumulated q(L)-sourced writes into q(Z)
    coeff_w = zero

    for layer in schedule.layers_in_order():
        M = _layer_term(code, layer)
        creg, treg = layer.registers()
        c, t = pos[creg], pos[treg]
        for row in (x_top, x_bot):
            row[t] = row[t] + row[c] * M
        for row in (z_top, z_bot):
            row[c] = row[c] + row[t] * M.T
        if layer.side == "Z":
            if layer.family == "B":
                coeff_u = coeff_u + BivariatePoly((M,), code.l, code.m)
            else:
                coeff_w = coeff_w + BivariatePoly((M,), code.l, code.m)

    x_ok = x_top == [one, A, B, zero] and x_bot == [zero, A, B, zero]
    z_ok = z_top == [zero, B.T, A.T, one] and z_bot == [zero, B.T, A.T, zero]
    return x_ok and z_ok and coeff_u == B and coeff_w == A


def _fast_schedule_valid(
    code: BBCode, x_seq: tuple[CNOTLayer, ...], z_seq: tuple[CNOTLayer, ...]
) -> bool:
    """Replay only the two algebraic conditions, on integer term sets.

    x_seq[i] acts in round i+2; z_seq[i] in round i+1, so z_seq[i] and
    x_seq[i-1] share a round (registers disjoint by the family rule).
    """
    table = translation_table(code.l, code.m)

    def mul(terms: set[int], t: Monomial) -> set[int]:
        row = table[t.index]
        return {row[e] for e in terms}

    sa: set[int] = set()  # A-terms written into q(L) so far
    sb: set[int] = set()  # B-terms written into q(R) so far
    sat: set[int] = set()  # A^T-terms received by q(R) in the Z replay
    sbt: set[int] = set()  # B^T-terms received by q(L) in the Z replay
    acc_x: set[int] = set()
    acc_z: set[int] = set()
    for r in range(1, 8):
        xl = x_seq[r - 2] if 2 <= r else None
        zl = z_seq[r - 1] if r <= 6 else None
        # both layers in a round act on disjoint registers; order is moot
        if xl is not None:
            t = _layer_term(code, xl)
            if xl.family == "A":
                acc_z ^= mul(sbt, t.T)
                sa ^= {t.index}
            else:
                acc_z ^= mul(sat, t.T)
                sb ^= {t.index}
        if zl is not None:
            t = _layer_term(code, zl)
            if zl.family == "B":
                acc_x ^= mul(sa, t)
                sbt ^= {t.T.index}
            else:
                acc_x ^= mul(sb, t)
                sat ^= {t.T.index}
    return not acc_x and not acc_z


def enumerate_schedules(code: BBCode) -> list[Schedule]:
    """All packings of the 12 layers into the 7 unitary rounds that verify.

    The search space: Z-side layers occupy rounds 1..6 (round 7 belongs
    to the Z readout), X-side layers rounds 2..7 (round 1 holds the X
    initialization), one layer per side per round, and layers sharing a
    round must act on disjoint registers.  Each structurally valid
    packing is kept iff ``_fast_schedule_valid``'s integer term-set
    replay leaves no stray term on either ancilla; the full symbolic
    replay, :func:`verify_sm_circuit`, is not run here (the tests run it
    on every packing kept).
    """
    from itertools import permutations

    x_layers = [l for l in ALL_LAYERS if l.side == "X"]
    z_layers = [l for l in ALL_LAYERS if l.side == "Z"]
    valid = []
    for zp in permutations(z_layers):
        zfam = tuple(l.family for l in zp)
        for xp in permutations(x_layers):
            # overlap rounds 2..6: x_seq[i] shares a round with z_seq[i+1]
            if any(xp[i].family != zfam[i + 1] for i in range(5)):
                continue
            if _fast_schedule_valid(code, xp, zp):
                rounds = [(zp[0],)]
                rounds.extend((xp[i], zp[i + 1]) for i in range(5))
                rounds.append((xp[5],))
                valid.append(Schedule(tuple(rounds)))
    return valid


# ---------------------------------------------------------------------------
# Pauli-frame propagation (batched, bit-packed over scenarios)
# ---------------------------------------------------------------------------


@dataclass
class FrameResult:
    """Propagation output, packed 64 scenarios per word."""

    batch: int
    z_check_outcomes: np.ndarray  # (n_cycles, lm, W) flips of MeasZ on q(Z)
    x_check_outcomes: np.ndarray  # (n_cycles, lm, W) flips of MeasX on q(X)
    final_x_frame: np.ndarray  # (n data qubits, W): residual X error
    final_z_frame: np.ndarray  # (n data qubits, W)


@dataclass
class RoundOps:
    """One round of the frame walk, as rows of the stacked frames.

    Row q is qubit q's X frame and row ``4lm + q`` its Z frame; record
    row r is row r of the stacked MeasZ then MeasX outcomes.
    """

    dst: np.ndarray  # every CNOT of the round: row dst[i] ^= row src[i]
    src: np.ndarray
    reset: np.ndarray  # rows the round's initializations clear
    reads: np.ndarray  # frame rows the round's measurements read ...
    records: np.ndarray  # ... into these record rows


class FramePlan:
    """Per-round index arrays of a circuit's frame walk, built once.

    The steps of one round touch disjoint qubits, so they commute, and
    each step's faults act only on that step's own operands: a round's
    CNOT layers are one XOR, its initializations one reset, its
    measurements one read, and its faults can all come between the
    reset and the read.  A measurement's record rows follow those of the
    earlier measurements of its basis.
    """

    def __init__(self, circ: ScheduledCircuit):
        lm = circ.code.lm
        nq = 4 * lm
        sizes = [len(rnd) for rnd in circ.rounds]
        self.rounds: list[RoundOps] = []
        self.round_of_step = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        # MeasZ reads the X frame into the first half of the records,
        # MeasX the Z frame into the second
        next_row = {"Z": 0, "X": circ.n_cycles * lm}
        for rnd in circ.rounds:
            parts: dict[str, list[np.ndarray]] = {
                "dst": [], "src": [], "reset": [], "reads": [], "records": []}
            for step in rnd:
                q = step.qubits
                if step.kind == "cnot":
                    # X frames copy from control to target, Z frames back
                    parts["dst"] += [step.targets, nq + q]
                    parts["src"] += [q, nq + step.targets]
                elif step.kind == "init":
                    parts["reset"] += [q, nq + q]
                elif step.kind == "meas":
                    parts["reads"].append(q + (step.basis == "X") * nq)
                    parts["records"].append(next_row[step.basis] + np.arange(len(q)))
                    next_row[step.basis] += len(q)
            self.rounds.append(RoundOps(**{
                name: np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
                for name, rows in parts.items()}))


def propagate_frames(
    circ: ScheduledCircuit,
    batch: int,
    injections: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> FrameResult:
    """Propagate X/Z Pauli frames through the circuit for many scenarios.

    ``injections = (steps, qubits, xz, scenarios)`` flips frame bit
    ``xz[i]`` (0 for X, 1 for Z) of ``qubits[i]`` in scenario
    ``scenarios[i]`` at step ``steps[i]``.  Flips may come in any order,
    and a flip listed twice cancels.

    The walk goes a round at a time (``FramePlan``): each round applies
    its CNOT layers and initializations, then injects its flips, then
    reads its measurements.  So a flip at a measurement step is read by
    that measurement, and a flip at any other step follows it.  The walk
    starts at the first round with an injection, since every frame is
    zero before it.  A one-word batch walks 1-D views of the frames and
    records, on which a fancy-indexed XOR costs about half as much.
    """
    plan = circ.frame_plan
    lm = circ.code.lm
    nq, n_records = 4 * lm, circ.n_cycles * lm
    W = nwords(batch)
    frames = np.zeros((2 * nq, W), dtype=np.uint64)
    records = np.zeros((2 * n_records, W), dtype=np.uint64)
    fr, rec = (frames[:, 0], records[:, 0]) if W == 1 else (frames, records)

    if len(injections[0]):
        steps, qubits, xz, scenarios = (np.asarray(a, dtype=np.int64) for a in injections)
        rnd = plan.round_of_step[steps]
        order = np.argsort(rnd, kind="stable")
        rnd, rows = rnd[order], (qubits + nq * xz)[order]
        words, masks = bit_masks(scenarios[order])
        bounds = np.searchsorted(rnd, np.arange(len(plan.rounds) + 1)).tolist()
        for r in range(int(rnd[0]), len(plan.rounds)):
            ops = plan.rounds[r]
            if ops.dst.size:
                fr[ops.dst] ^= fr[ops.src]
            if ops.reset.size:
                fr[ops.reset] = 0
            lo, hi = bounds[r], bounds[r + 1]
            if lo < hi:
                np.bitwise_xor.at(fr, rows[lo:hi] if W == 1 else (rows[lo:hi], words[lo:hi]),
                                  masks[lo:hi])
            if ops.reads.size:
                rec[ops.records] = fr[ops.reads]

    return FrameResult(
        batch=batch,
        z_check_outcomes=records[:n_records].reshape(circ.n_cycles, lm, W),
        x_check_outcomes=records[n_records:].reshape(circ.n_cycles, lm, W),
        final_x_frame=frames[: 2 * lm],
        final_z_frame=frames[nq : nq + 2 * lm],
    )


# ---------------------------------------------------------------------------
# Automorphism circuits
# ---------------------------------------------------------------------------


@dataclass
class AutomorphismCircuit:
    """A gadget of six rounds, CNOT depth 4, shifting both data blocks by one monomial."""

    code: BBCode
    shift: Monomial
    rounds: list[list[Step]] = field(repr=False)


def build_automorphism_circuit(code: BBCode, kind: str, j: int, k: int) -> AutomorphismCircuit:
    """Emit the move-based automorphism circuit for shift s.

    A-type: s = A_j A_k^T; the q(L) block cycles through q(X) while the
    q(R) block cycles through q(Z).  B-type mirrors this with s =
    B_j B_k^T, moving q(L) through q(Z) and q(R) through q(X).  The two
    moves touch disjoint registers and share all six rounds.  Blank
    targets are re-initialized before every move so errors never
    propagate between data qubits.

    Raises:
        ValueError: j == k (the identity needs no circuit) or bad kind.
    """
    if kind not in ("A", "B"):
        raise ValueError("kind must be 'A' or 'B'")
    if j == k:
        raise ValueError("j == k is the identity automorphism; no circuit needed")
    lm = code.lm
    poly = code.a_poly if kind == "A" else code.b_poly
    tj, tk = poly.term(j), poly.term(k)
    table = translation_table(code.l, code.m)

    def shifted(reg: str, t: Monomial) -> np.ndarray:
        return REG_OFFSET[reg] * lm + table[t.index]

    X, Z = (REG_OFFSET[r] * lm + np.arange(lm) for r in ("X", "Z"))
    if kind == "A":
        # q(L, A_k a) -> q(X, a) -> q(L, A_j a);  q(R, A_j^T g) -> q(Z, g) -> q(R, A_k^T g)
        moves = [(shifted("L", tk), X, shifted("L", tj)),
                 (shifted("R", tj.T), Z, shifted("R", tk.T))]
    else:
        # q(L, B_j^T g) -> q(Z, g) -> q(L, B_k^T g);  q(R, B_k b) -> q(X, b) -> q(R, B_j b)
        moves = [(shifted("L", tj.T), Z, shifted("L", tk.T)),
                 (shifted("R", tk), X, shifted("R", tj))]

    def move(src: np.ndarray, anc: np.ndarray, dst: np.ndarray) -> tuple[Step, ...]:
        return (Step("init", anc, basis="Z"), Step("cnot", src, anc), Step("cnot", anc, src),
                Step("init", dst, basis="Z"), Step("cnot", anc, dst), Step("cnot", dst, anc))

    rounds = [list(steps) for steps in zip(*(move(*m) for m in moves))]
    return AutomorphismCircuit(code, tj * tk.T, rounds)


def automorphism_data_permutation(circ: AutomorphismCircuit) -> np.ndarray:
    """Recover the realized data permutation by frame propagation.

    Scenario q carries an X on data qubit q and scenario n + q a Z on
    it; after the gadget, the data qubits hit by each scenario's frame
    show where qubit q went.  Residual frames on ancillas are
    discarded: the gadget leaves ancillas in |0>, where they are
    re-initialized before any reuse.

    Returns:
        perm: array with perm[q] = destination of data qubit q, or
        raises ValueError if the circuit is not a clean permutation.
    """
    n = 2 * circ.code.lm
    data = np.arange(n)
    # round 0 initializes the ancilla blocks and leaves the data alone, so
    # a flip injected right after its step 0 is a flip on the gadget's input
    injections = (np.zeros(2 * n, dtype=np.int64), np.tile(data, 2), np.repeat([0, 1], n),
                  np.arange(2 * n))
    probe = ScheduledCircuit(code=circ.code, n_cycles=0, rounds=circ.rounds)
    res = propagate_frames(probe, 2 * n, injections)
    dense_x, dense_z = (
        unpack_bits(fin, 2 * n)[:, scen]
        for fin, scen in ((res.final_x_frame, data), (res.final_z_frame, n + data))
    )
    if not ((dense_x.sum(axis=0) == 1).all() and (dense_x.sum(axis=1) == 1).all()):
        raise ValueError("gadget does not implement a data permutation")
    perm = np.argmax(dense_x, axis=0)
    if not np.array_equal(np.argmax(dense_z, axis=0), perm):
        raise ValueError("X and Z frames disagree on the permutation")
    return perm


def shift_permutation(code: BBCode, s: Monomial) -> np.ndarray:
    """Data permutation q(T, a) -> q(T, s*a) on both blocks."""
    moved = translation_table(code.l, code.m)[s.index]
    return np.concatenate([moved, code.lm + moved])


def verify_automorphism(
    code: BBCode,
    s: Monomial | None = None,
    data_permutation: np.ndarray | None = None,
    basis=None,
) -> bool:
    """Check a data-qubit permutation preserves both check matrices.

    Permuting columns must amount to a row relabeling of HX and of HZ.
    When a logical basis is supplied the induced action on the
    unprimed X family is also checked: the image of X(a*f, 0) must
    equal X(s*a*f, 0) modulo stabilizer.
    """
    if data_permutation is None:
        if s is None:
            raise ValueError("need a shift or an explicit permutation")
        data_permutation = shift_permutation(code, s)
    perm = np.asarray(data_permutation)

    if not all(maps_rows_onto(h, h, perm) for h in (code.hx, code.hz)):
        return False

    if basis is not None and s is not None:
        for alpha in (Monomial.one(code.l, code.m), s):
            moved = np.zeros(code.n, dtype=np.uint8)
            moved[perm] = basis.x_bar(alpha).to_bits()
            diff = BinVector.from_bits(moved) ^ basis.x_bar(s * alpha)
            if not (diff.is_zero() or code.hx.in_rowspace(diff)):
                return False
    return True
