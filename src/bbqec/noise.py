"""Circuit-level depolarizing noise: fault enumeration and sampling.

Every operation of the syndrome-measurement circuit fails independently with
probability p: a faulty CNOT applies one of 15 two-qubit Paulis after
the gate (p/15 each), a faulty idle one of X/Y/Z (p/3), a faulty
initialization prepares the orthogonal state and a faulty measurement
flips its outcome (p each).  Every fault is read as a Pauli-frame flip:
a faulty MeasZ flips its qubit's X frame just before the reading, and a
faulty MeasX its Z frame.  That is exact, because only that measurement
reads the flip: the circuit initializes every measured qubit again
before any later step touches it, and a measured data qubit, which the
final data error reads, also before the end (``ScheduledCircuit`` checks).

Each single fault has an integer id.  The faults of step s hold the ids
``offsets[s]`` to ``offsets[s + 1] - 1``, and fault
``offsets[s] + g * n_classes + c`` is class c on operation g of that
step: CNOT steps have 15 classes (``CNOT_CLASSES``), idle steps 3
(``IDLE_CLASSES``), init and meas steps 1.  ``FaultTable.frame_flips``
turns (fault id, scenario) pairs into Pauli-frame flips, the one kind of
flip ``propagate_frames`` takes; enumeration, forced faults and sampling
all go through it.  A sampled shot draws
which operations fail from one uniform per operation of the circuit,
then one uniform class per faulty operation (``sample_circuit_noise``
states the stream).

``side_rows`` is the one step from propagated frames to each error
type's packed detector and logical rows.  A detector row is a check's
measured outcome XORed with the same check's previous cycle.  The final
block plays the part of an appended noiseless readout cycle: each of its
rows is the check applied to the residual data error, XORed with that
check's last measured outcome, the standard detector convention (Gidney,
*Stim*, 2021).  Every detector then compares two consecutive readings of
one check, so a fault flips detectors next to its own cycle only.  The
sampler propagates its drawn faults the same way.

The model build takes the single faults in chunks of consecutive ids,
sized from the byte budget ``_CHUNK_BYTES`` before anything is
allocated.  A fault's signature is its detector flips then its logical
flips, packed into words.  Propagation is linear over GF(2), so a
fault's signature is the XOR of the signatures of its frame flips, and
a chunk propagates each of its distinct flips once, as one scenario
(all of bb144's 169,344 faults with 12 cycles use 51,840 flips).  X and
Z frames never mix and a side reads only one of them, so it sees at
most one flip per operand of a fault, a pair; faults with the same pair
share one signature, so only the distinct pairs are XORed and merged.
Each side merges them into a running set of distinct signatures, so
between chunks it keeps only that set and one column index per fault.
At the end the set is sorted once: the columns follow the signatures in
unsigned lexicographic order of their words, word 0 first, and the
all-zero signature, which sorts first, is dropped.  A column's prior is
its faults' priors summed in fault-id order.  The model's record of the
faults is ``SideModel.fault_column``, each fault id's column (-1 for a
dropped fault), which turns a shot's fault ids into its error vector;
``provenance``, each column's fault ids, is its inverse.  None of this
depends on where the chunks end, so the model is the same for any chunk
size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .circuit import FrameResult, ScheduledCircuit, propagate_frames
from .code import BBCode
from .gf2 import BinMatrix, nwords, unpack_bits
from .logical import LogicalBasis

# Pauli encoding for two-qubit fault classes: I=0, X=1, Y=2, Z=3.
_X_PART = np.array([0, 1, 1, 0], dtype=bool)
_Z_PART = np.array([0, 0, 1, 1], dtype=bool)
CNOT_CLASSES = [(c, t) for c in range(4) for t in range(4)][1:]  # 15, II excluded
IDLE_CLASSES = [1, 2, 3]  # X, Y, Z

# What each fault class flips, one row per class, by a step's (kind,
# basis).  The columns are the first operand's X and Z frame bits, then
# the second operand's.  A CNOT's operands are its control and its
# target; other steps have one.
_CLASS_FLIPS = {
    ("cnot", None): [[_X_PART[c], _Z_PART[c], _X_PART[t], _Z_PART[t]]
                     for c, t in CNOT_CLASSES],
    ("idle", None): [[_X_PART[c], _Z_PART[c], 0, 0] for c in IDLE_CLASSES],
    # a faulty init prepares |1> (an X flip) for InitZ and |-> (a Z flip) for InitX
    ("init", "Z"): [[1, 0, 0, 0]],
    ("init", "X"): [[0, 1, 0, 0]],
    # a faulty measurement flips the frame it reads, an X flip for MeasZ
    # and a Z flip for MeasX, before the reading
    ("meas", "Z"): [[1, 0, 0, 0]],
    ("meas", "X"): [[0, 1, 0, 0]],
}
# the blocks above stacked; each block's index, class count and first row
_FLIPS = np.array(list(chain.from_iterable(_CLASS_FLIPS.values())), dtype=bool)
_BLOCK = {key: i for i, key in enumerate(_CLASS_FLIPS)}
_N_CLASSES = np.array([len(rows) for rows in _CLASS_FLIPS.values()])
_FIRST_CLASS = np.cumsum(_N_CLASSES) - _N_CLASSES


@dataclass
class FaultTable:
    """All single faults of one SM circuit, as flat fault ids.

    Fault ``offsets[s] + g * n_classes[s] + c`` is class c on operation
    g of step s (class counts in the module doc), so ids run in (step,
    operation, class) order.  Operation g of step s is also operation
    ``op_start[s] + g`` of the circuit (``ScheduledCircuit.operands``).
    ``frame_flips`` is the one place that maps a fault to the frame bits
    it flips.  A measurement fault flips the frame its measurement reads,
    which equals flipping the outcome, since that frame is reset before
    anything else reads it (module doc).
    """

    circuit: ScheduledCircuit
    n_classes: np.ndarray  # (steps,): fault classes per operation
    first_class: np.ndarray  # (steps,): the row of the step's class block in _FLIPS
    op_start: np.ndarray  # (steps + 1,): first operation of each step, then the count
    offsets: np.ndarray  # (steps + 1,): first fault id of each step, then the count

    @property
    def count(self) -> int:
        return int(self.offsets[-1])

    def priors(self, p: float) -> np.ndarray:
        """Each fault's probability: p split evenly over its operation's classes."""
        return p * np.repeat(1 / self.n_classes, np.diff(self.offsets))

    def frame_flips(self, faults: np.ndarray, scenarios: np.ndarray):
        """Apply fault ``faults[i]`` in scenario ``scenarios[i]``, for every i.

        A fault may appear in several scenarios, or twice in one, where
        the two copies cancel.  Returns the injections ``(steps, qubits,
        xz, scenarios)`` in ``propagate_frames`` form, grouped by fault in
        input order, each fault's in ``_CLASS_FLIPS`` column order (the
        first operand's X then Z flip, then the second's): ``_flip_pairs``
        relies on that order.

        Raises:
            ValueError: a fault id outside the table.
        """
        faults = np.asarray(faults, dtype=np.int64)
        scenarios = np.asarray(scenarios, dtype=np.int64)
        if faults.size and not 0 <= faults.min() <= faults.max() < self.count:
            raise ValueError(f"fault ids must lie in [0, {self.count})")
        # a fault's step is the last one starting at or before it, so a
        # step without operations, which shares its offset, is skipped
        step = np.searchsorted(self.offsets, faults, side="right") - 1
        gate, cls = np.divmod(faults - self.offsets[step], self.n_classes[step])
        hit, column = np.nonzero(_FLIPS[self.first_class[step] + cls])
        step = step[hit]
        operand = self.circuit.operands[column // 2, self.op_start[step] + gate[hit]]
        return step, operand, column % 2, scenarios[hit]

    def draw(self, p: float, bitgen: np.random.BitGenerator) -> np.ndarray:
        """One shot's fault ids, by ``sample_circuit_noise``'s stream contract.

        The faulty operations come in circuit order, and each one's class
        is uniform over its step's classes.
        """
        rng = np.random.Generator(bitgen)
        ops = np.flatnonzero(rng.random(int(self.op_start[-1])) < p)
        # an operation's step is the last one starting at or before it, so
        # a step without operations, which shares its start, is skipped
        step = np.searchsorted(self.op_start, ops, side="right") - 1
        k = self.n_classes[step]
        return self.offsets[step] + (ops - self.op_start[step]) * k + rng.integers(0, k)


def build_fault_table(circ: ScheduledCircuit) -> FaultTable:
    """Number every admissible single fault of the circuit."""
    steps = circ.steps
    block = np.fromiter((_BLOCK[s.kind, s.basis] for s in steps), np.int64, len(steps))
    n_ops = np.fromiter((len(s.qubits) for s in steps), np.int64, len(steps))
    n_classes = _N_CLASSES[block]
    return FaultTable(
        circuit=circ,
        n_classes=n_classes,
        first_class=_FIRST_CLASS[block],
        op_start=np.concatenate([[0], np.cumsum(n_ops)]),
        offsets=np.concatenate([[0], np.cumsum(n_classes * n_ops)]),
    )


# ---------------------------------------------------------------------------
# Detector and logical rows of each side
# ---------------------------------------------------------------------------


def side_rows(
    res: FrameResult, code: BBCode, basis: LogicalBasis
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each error type's (detector rows, logical rows), packed over scenarios.

    X errors are seen by the MeasZ outcomes, each cycle XORed with the
    previous cycle of the same check, then by HZ applied to the final X
    frame (the noiseless readout cycle) XORed with the last cycle, and
    they act on the Z logicals.  Z errors mirror that.  This is the one
    place that states which rows belong to which side.  Each block of
    detector rows holds lm rows, one per check.
    """
    sides = {
        "X": (res.z_check_outcomes, code.hz, basis.z_support_matrix, res.final_x_frame),
        "Z": (res.x_check_outcomes, code.hx, basis.x_support_matrix, res.final_z_frame),
    }
    rows = {}
    for error_type, (record, checks, logicals, frame) in sides.items():
        n_cycles, lm, W = record.shape
        flat = record.reshape(n_cycles * lm, W)
        frames = BinMatrix(len(frame), res.batch, frame)
        detectors = np.empty((len(flat) + checks.rows, W), dtype=np.uint64)
        detectors[: len(flat)] = flat
        detectors[lm : len(flat)] ^= flat[:-lm]
        # XORed in place: a temporary per model-build chunk raised
        # perfbench's peak RSS on bb144/12 by about 3 MB
        detectors[len(flat) :] = checks.mul_mat(frames).words
        detectors[len(flat) :] ^= flat[-lm:]
        rows[error_type] = (detectors, logicals.mul_mat(frames).words)
    return rows


def enumerate_faults(
    table: FaultTable, lo: int, hi: int, basis: LogicalBasis
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each side's signatures of faults ``lo`` to ``hi - 1``, from one batched run.

    Propagation and ``side_rows`` are linear over GF(2), so a fault's
    signature is the XOR of the signatures of its frame flips, the
    (step, qubit, X or Z) injections of ``FaultTable.frame_flips``.
    Each distinct flip of the chunk is one scenario of the run, so a
    chunk propagates at most as many scenarios as it has faults.  On
    each side, faults with the same pair of seen flips (``_flip_pairs``)
    share one signature, and a CNOT's 15 classes give at most 4 such
    pairs, so only the distinct pairs are XORed.

    Returns each side's ``(signatures, rows)``: the distinct pairs'
    signatures, detector flips then logical flips packed into words one
    row each, and each fault's row among them.
    """
    ids = np.arange(lo, hi)
    steps, qubits, xz, fault = table.frame_flips(ids, ids - lo)
    # a flip is keyed by its step and frame row, as propagate_frames numbers the rows
    nq = 4 * table.circuit.code.lm
    keys, flip = np.unique((steps * 2 + xz) * nq + qubits, return_inverse=True)
    n_flips = len(keys)
    step_xz, qubit = np.divmod(keys, nq)
    res = propagate_frames(table.circuit, n_flips,
                           (step_xz // 2, qubit, step_xz % 2, np.arange(n_flips)))
    sides = {}
    for side, (detectors, logicals) in side_rows(res, table.circuit.code, basis).items():
        stacked = np.vstack([detectors, logicals])
        signatures = BinMatrix(len(stacked), n_flips, stacked).transpose().words
        sides[side] = _flip_pairs(signatures, fault, flip, hi - lo)
    return sides


def _flip_pairs(
    signatures: np.ndarray, fault: np.ndarray, flip: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """One side's distinct flip pairs of ``count`` faults and their signatures.

    Fault ``fault[i]`` applies flip ``flip[i]``, whose signature is row
    ``flip[i]`` of ``signatures``, each fault's flips together, as
    ``FaultTable.frame_flips`` lists them.  A side sees at most one flip
    per operand (module doc): a fault's flips with a nonzero signature
    fill its two slots in order, and an empty slot reads the appended
    zero row.  Returns each distinct pair's signature, the XOR of its
    two rows, and each fault's pair.

    Raises:
        ValueError: a fault shows the side more than two flips.
    """
    seen = signatures.any(axis=1)[flip]
    fault, flip = fault[seen], flip[seen]
    second = np.diff(fault, prepend=-1) == 0  # its fault has a seen flip before it
    if (second[1:] & second[:-1]).any():
        raise ValueError("a fault shows one side more than two frame flips")
    zero = len(signatures)
    slots = np.full((2, count), zero)
    slots[second.astype(np.int64), fault] = flip
    keys, pair = np.unique(slots[0] * (zero + 1) + slots[1], return_inverse=True)
    first, last = np.divmod(keys, zero + 1)
    padded = np.vstack([signatures, np.zeros_like(signatures[:1])])
    return padded[first] ^ padded[last], pair


# ---------------------------------------------------------------------------
# Detector model
# ---------------------------------------------------------------------------


@dataclass
class SideModel:
    """Decoding data for one error type (X errors or Z errors)."""

    matrix: BinMatrix  # detectors x merged fault columns
    logical: BinMatrix  # k x merged fault columns
    priors: np.ndarray
    # each fault id's column; -1 where it merged into the dropped all-zero signature
    fault_column: np.ndarray = field(repr=False)
    block_rows: int  # detector rows per cycle block: the code's lm

    @property
    def provenance(self) -> list[np.ndarray]:
        """Each column's fault ids, ascending, from one stable sort of ``fault_column``."""
        by_column = np.argsort(self.fault_column, kind="stable")  # the dropped (-1) first
        ends = np.cumsum(np.bincount(self.fault_column + 1, minlength=self.n_columns + 1))
        # slices cost a fraction of np.split's per-piece overhead
        return [by_column[a:b] for a, b in zip(ends[:-1].tolist(), ends[1:].tolist())]

    @property
    def n_detector_rows(self) -> int:
        return self.matrix.rows

    @property
    def n_columns(self) -> int:
        return self.matrix.cols

    @cached_property
    def readout_matrix(self) -> BinMatrix:
        """The detector matrix with its final block raw, built once per model.

        Each row of that block is then its check applied to the final
        data error alone, as if the last measured cycle were not
        subtracted.  The XOR of a check's detectors over the cycle
        blocks is its last measured outcome, so one XOR-reduce over those
        blocks, added to the final block, undoes the differencing.  That
        is an invertible row operation, so the kernel is the matrix's.
        """
        lm, words = self.block_rows, self.matrix.words
        raw = words.copy()
        raw[-lm:] ^= np.bitwise_xor.reduce(words[:-lm].reshape(-1, lm, words.shape[1]), axis=0)
        return BinMatrix(self.matrix.rows, self.matrix.cols, raw)

    def sparsity(self) -> tuple[int, int]:
        """(max column weight, max row weight)."""
        column_weights = np.bitwise_count(self.matrix.transpose().words).sum(axis=1)
        row_weights = np.bitwise_count(self.matrix.words).sum(axis=1)
        return int(column_weights.max()), int(row_weights.max())


@dataclass
class DetectorModel:
    circuit: ScheduledCircuit
    basis: LogicalBasis
    p: float
    x: SideModel
    z: SideModel
    fault_table: FaultTable = field(repr=False)

    @property
    def pre_merge_count(self) -> int:
        """The single faults before merging: one per fault id."""
        return self.fault_table.count


# Upper bound on the bytes one model-build chunk holds, as
# ``_chunk_faults`` counts them.  On bb144 with 12 cycles it gives 19
# chunks of about 8.9k faults.  Each chunk costs one walk of the
# circuit's steps: 2^22 made that build 40-70% slower, and 2^24 saved
# no measurable time; the build's traced peak, about 19 MB, is set by
# the final merge at all three.
_CHUNK_BYTES = 1 << 23


def _chunk_faults(table: FaultTable) -> int:
    """Faults per model-build chunk, from ``_CHUNK_BYTES``.

    Counted from the code and circuit sizes before anything is
    allocated.  A chunk propagates its distinct flips, and no operation
    has more flips than fault classes, so a chunk has at most one flip
    per fault.  Per fault, then: one flip's X and Z frames of 4lm
    qubits, its two sides' N_c * lm check records, each side's
    (N_c + 1) * lm detector rows and k logical rows, and each side's
    signature words; plus sixteen int64 words: the fault's id and
    scenario, its flip's four ``frame_flips`` arrays, that flip's key
    and index, and on each side its pair's two slots, key and row.  A
    CNOT chunk holds far less: its 15 classes share an operation's four
    flips.  The chunks the budget allows are then evened out, so the
    last one is not a sliver.
    """
    circ = table.circuit
    lm, k = circ.code.lm, circ.code.k
    side_bits = (circ.n_cycles + 1) * lm + k
    bits = (8 * lm + 2 * circ.n_cycles * lm + 2 * side_bits + 2 * 64 * nwords(side_bits)
            + 16 * 64)
    chunks = -(-table.count // max(1, 8 * _CHUNK_BYTES // bits))
    return -(-table.count // chunks)


class _SignatureMerge:
    """One side's running merge of fault signatures, fed in fault-id order.

    Between chunks it keeps only the distinct signatures seen so far, as
    byte-string keys in first-seen order, and each fault's index among
    them.  A dict lookup per signature costs the same whatever the size
    of the set, where re-sorting the set with each chunk would not.
    """

    def __init__(self, n_det: int, n_log: int) -> None:
        self.n_det, self.n_log = n_det, n_log
        self._index: dict[bytes, int] = {}
        self._columns: list[np.ndarray] = []

    def add(self, signatures: np.ndarray, rows: np.ndarray) -> None:
        """Merge the next ``len(rows)`` faults: fault i's signature is row ``rows[i]``.

        ``signatures`` holds packed signatures one per row, each keyed
        once however many faults share it.
        """
        signatures = np.ascontiguousarray(signatures)
        keys = signatures.view(np.dtype((np.void, signatures.shape[1] * 8))).ravel().tolist()
        index = self._index
        columns = np.fromiter((index.setdefault(key, len(index)) for key in keys),
                              np.int64, len(keys))
        self._columns.append(columns[rows])

    def result(self, priors: np.ndarray, block_rows: int) -> SideModel:
        """The side's model: one column per distinct nonzero signature.

        Columns follow the signature words in unsigned lexicographic
        order, word 0 (rows 0-63) first, from one sort of the distinct
        set.  Each one's prior is its faults' priors summed in fault-id
        order and capped below 1.  The all-zero signature sorts first and
        is dropped: it is undetectable and acts trivially, and its faults'
        column is -1.
        """
        n_bits = self.n_det + self.n_log
        distinct = np.frombuffer(b"".join(self._index), dtype=np.uint64).reshape(-1, nwords(n_bits))
        order = np.lexsort(distinct.T[::-1])
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        column = rank[np.concatenate(self._columns)]
        merged = distinct[order]
        merged_priors = np.minimum(
            np.bincount(column, weights=priors, minlength=len(merged)), 1.0 - 1e-9)
        if len(merged) and not merged[0].any():
            merged, merged_priors = merged[1:], merged_priors[1:]
            column -= 1
        rows = BinMatrix(len(merged), n_bits, merged).transpose().words
        return SideModel(
            matrix=BinMatrix(self.n_det, len(merged), rows[: self.n_det]),
            logical=BinMatrix(self.n_log, len(merged), rows[self.n_det :]),
            priors=merged_priors,
            fault_column=column,
            block_rows=block_rows,
        )


def build_detector_model(
    circ: ScheduledCircuit, p: float, basis: LogicalBasis
) -> DetectorModel:
    """Enumerate the single faults a chunk at a time and merge each side's columns.

    Each chunk is one ``enumerate_faults`` call on ``_chunk_faults``
    consecutive fault ids, sized from ``_CHUNK_BYTES``.  It propagates
    the chunk's distinct frame flips once each and, by linearity over
    GF(2), XORs each side's distinct pairs of flips that side sees into
    signatures; each fault's column is its pair's.  The pairs are merged
    into each side's running set of distinct signatures and then
    released.  The model is the same for any chunk size, byte for byte:
    a fault's column depends only on its signature and the sorted
    distinct set, and priors are summed in fault-id order.

    Raises:
        ValueError: p outside [0, 1], NaN included.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must be a probability")
    table = build_fault_table(circ)
    size = _chunk_faults(table)
    n_det = (circ.n_cycles + 1) * circ.code.lm
    merges = {side: _SignatureMerge(n_det, circ.code.k) for side in ("X", "Z")}
    for lo in range(0, table.count, size):
        for side, (signatures, rows) in enumerate_faults(
                table, lo, min(lo + size, table.count), basis).items():
            merges[side].add(signatures, rows)
    priors = table.priors(p)
    return DetectorModel(
        circuit=circ,
        basis=basis,
        p=p,
        x=merges["X"].result(priors, circ.code.lm),
        z=merges["Z"].result(priors, circ.code.lm),
        fault_table=table,
    )


def dump_side_model(side: SideModel) -> str:
    """Sparse text dump: header then one 'col: prior; dets; logicals' line."""
    lines = [f"{side.matrix.rows} {side.matrix.cols} {side.logical.rows}"]
    det_ptr, det_rows = side.matrix.transpose().csr()
    log_ptr, log_rows = side.logical.transpose().csr()
    for j in range(side.matrix.cols):
        dets = " ".join(str(i) for i in det_rows[det_ptr[j] : det_ptr[j + 1]])
        logs = " ".join(str(i) for i in log_rows[log_ptr[j] : log_ptr[j + 1]])
        lines.append(f"{j}: {side.priors[j]:.12e}; {dets}; {logs}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


@dataclass
class SampleBatch:
    """Unpacked per-shot syndromes ready for decoding, and the faults behind them."""

    shots: int
    x_syndromes: np.ndarray  # (shots, detector rows of the X model)
    z_syndromes: np.ndarray
    logical_x: np.ndarray  # (shots, k) true logical syndromes
    logical_z: np.ndarray
    faults: np.ndarray  # the fault ids applied, shot by shot
    fault_shots: np.ndarray  # the shot of each of them


def _shot_bitgen(seed: int, shot: int) -> np.random.Philox:
    return np.random.Philox(key=seed, counter=[0, 0, 0, shot])


def sample_circuit_noise(
    circ: ScheduledCircuit,
    p: float,
    shots: int,
    seed: int,
    basis: LogicalBasis,
    first_shot: int = 0,
    forced_faults: list[list[int]] | None = None,
    fault_table: FaultTable | None = None,
) -> SampleBatch:
    """Sample noisy circuit runs (or forced fault multisets) exactly.

    Each operation fails independently with probability p; the chosen
    Pauli/flip is propagated through the full circuit so the returned
    syndromes and logical flips are exact.  Shots are keyed by
    (seed, first_shot + index) with a counter-based generator, so
    results are independent of batching and worker layout.

    The stream contract, which ``SAMPLE_SHA`` in the tests pins: shot j
    draws from ``rng = np.random.Generator(np.random.Philox(key=seed,
    counter=[0, 0, 0, j]))`` twice (``FaultTable.draw``).  First
    ``rng.random(n_ops) < p`` over the circuit's n_ops operations, in
    (step, operation) order, marks the faulty ones; then
    ``rng.integers(0, k)``, with k the array of their steps' class
    counts, gives each faulty operation its class, in the same order.

    With ``forced_faults`` the randomness is bypassed and scenario j
    applies exactly the fault ids listed in ``forced_faults[j]``; shots
    is then 0 or the number of scenarios.

    Raises:
        ValueError: shots or first_shot below 0, p outside [0, 1],
        forced_faults given with shots neither 0 nor len(forced_faults),
        or a fault_table built for another circuit.
    """
    if shots < 0 or first_shot < 0:
        raise ValueError("shots and first_shot must be >= 0")
    if forced_faults is not None and shots not in (0, len(forced_faults)):
        raise ValueError("with forced_faults, shots must be 0 or len(forced_faults)")
    if fault_table is not None and fault_table.circuit is not circ:
        raise ValueError("fault_table was built for another circuit")
    table = fault_table or build_fault_table(circ)
    if forced_faults is None:
        if not 0 <= p <= 1:
            raise ValueError("p must be a probability")
        shot_faults = [table.draw(p, _shot_bitgen(seed, first_shot + j)) for j in range(shots)]
    else:
        shot_faults = forced_faults
    shots = len(shot_faults)
    faults = np.fromiter(chain.from_iterable(shot_faults), dtype=np.int64)
    scenarios = np.repeat(np.arange(shots), [len(f) for f in shot_faults])
    res = propagate_frames(circ, shots, table.frame_flips(faults, scenarios))
    rows = side_rows(res, circ.code, basis)
    (x_det, x_log), (z_det, z_log) = rows["X"], rows["Z"]

    def unp(words: np.ndarray) -> np.ndarray:
        return unpack_bits(words, shots).T.copy()

    return SampleBatch(
        shots=shots,
        x_syndromes=unp(x_det),
        z_syndromes=unp(z_det),
        logical_x=unp(x_log),
        logical_z=unp(z_log),
        faults=faults,
        fault_shots=scenarios,
    )
