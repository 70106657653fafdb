"""Fault pipeline on bb72 with 6 cycles: enumeration, forced faults, sampling
and its random stream; plus the signature merge, the chunked
model build, and a golden and the build's memory bound on bb144 with 12
cycles."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from bbqec import noise
from bbqec.circuit import (
    automorphism_data_permutation,
    build_automorphism_circuit,
    propagate_frames,
    shift_permutation,
)
from bbqec.code import catalog_code
from bbqec.gf2 import BinMatrix, unpack_bits
from bbqec.noise import _SignatureMerge, dump_side_model, sample_circuit_noise

FIELDS = ("x_syndromes", "z_syndromes", "logical_x", "logical_z")

# SHA-256 of the model dumps and of a 40-shot, seed-7 batch.  They change
# with any change to fault numbering, propagation, column merging or the
# sampler's random stream; such a change must be deliberate and stated.
DUMP_X_SHA = "410ecc3f39f5187e34830f1da7bd3083debc3d68701ec0097001fbd24feb0428"
DUMP_Z_SHA = "a0bf5be91447d250fd4bebc859dc7da8265e689ec685e74734790ec8757fc080"
SAMPLE_SHA = "106b883f4f58c8716b4ae34838febe80939000fc2e7b2dd0a4f9ed77a93b5c06"
# SHA-256 of bb144 with 12 cycles at p = 0.001: each side's dump, then the
# sizes and the concatenated fault ids of its columns' provenance.
DUMP144_SHA = "811b42585ec65c8a11698e5ac8ce409f8150fe366360c03fc14783b0263469d7"


def arrays(model, batch) -> dict[str, np.ndarray]:
    """The batch's fields, then what its fault ids, propagated again, give:
    each check's measured outcomes and the final X and Z data errors."""
    flips = model.fault_table.frame_flips(batch.faults, batch.fault_shots)
    res = propagate_frames(model.circuit, batch.shots, *flips)
    nc, lm, _ = res.z_check_outcomes.shape

    def unp(words):
        return unpack_bits(words, batch.shots).T

    return {**{name: getattr(batch, name) for name in FIELDS},
            "raw_z_checks": unp(res.z_check_outcomes.reshape(nc * lm, -1)),
            "raw_x_checks": unp(res.x_check_outcomes.reshape(nc * lm, -1)),
            "alpha": unp(res.final_x_frame), "beta": unp(res.final_z_frame)}


def batch_digest(model, batch) -> str:
    h = hashlib.sha256()
    for name, a in arrays(model, batch).items():
        a = np.ascontiguousarray(a, dtype=np.uint8)
        h.update(name.encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def sample(model, shots, seed, p=None, **kwargs):
    p = model.p if p is None else p
    return sample_circuit_noise(model.circuit, p, shots, seed, model.basis, **kwargs)


def forced(model, scenarios):
    return sample(model, 0, 0, forced_faults=scenarios, fault_table=model.fault_table)


def test_model_dump_golden(model):
    assert model.fault_table.count == model.pre_merge_count == 42336
    assert hashlib.sha256(dump_side_model(model.x).encode()).hexdigest() == DUMP_X_SHA
    assert hashlib.sha256(dump_side_model(model.z).encode()).hexdigest() == DUMP_Z_SHA


def test_model144_golden(model144):
    h = hashlib.sha256()
    for side in (model144.x, model144.z):
        h.update(dump_side_model(side).encode())
        h.update(np.array([len(m) for m in side.provenance], dtype=np.int64).tobytes())
        h.update(np.concatenate(side.provenance).astype(np.int64).tobytes())
    assert h.hexdigest() == DUMP144_SHA


def distinct_flips(table, chunks) -> list[int]:
    """How many distinct frame flips the faults of each (lo, hi) chunk apply."""
    ids = np.arange(table.count)
    counts = [0] * len(chunks)
    # each kind of flip comes as its key arrays, then the faults, ascending
    for *keys, faults in table.frame_flips(ids, ids):
        flips = list(zip(*(key.tolist() for key in keys)))
        bounds = np.searchsorted(faults, [lo for lo, _ in chunks] + [table.count])
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            counts[i] += len(set(flips[a:b]))
    return counts


def model_digest(model) -> tuple:
    """Each side's dump digest, priors and fault columns."""
    return tuple((hashlib.sha256(dump_side_model(side).encode()).hexdigest(), side.priors,
                  side.fault_column) for side in (model.x, model.z))


def assert_same_model(got, want):
    for (dump, priors, columns), (want_dump, want_priors, want_columns) in zip(got, want):
        assert dump == want_dump
        assert np.array_equal(priors, want_priors)
        assert np.array_equal(columns, want_columns)


def test_chunked_build_matches_one_chunk(model, monkeypatch):
    table = model.fault_table
    cnot_blocks = [(table.offsets[i], table.offsets[i + 1])
                   for i, step in enumerate(model.circuit.steps) if step.kind == "cnot"]
    first_undetected_x = np.flatnonzero(model.x.fault_column < 0)[0]
    calls = []

    def counted(*args):
        calls.append(args[1])
        return propagate(*args)

    propagate = noise.propagate_frames
    monkeypatch.setattr(noise, "propagate_frames", counted)
    monkeypatch.setattr(noise, "_CHUNK_BYTES", 1 << 40)
    assert noise._chunk_faults(table) == table.count
    whole = model_digest(noise.build_detector_model(model.circuit, model.p, model.basis))
    assert calls == distinct_flips(table, [(0, table.count)])
    assert whole[0][0] == DUMP_X_SHA and whole[1][0] == DUMP_Z_SHA
    cut_cnot = first_clean = False
    # 2^17 bytes is a few hundred faults a chunk; 10,000 bytes is a few dozen
    for budget in (1 << 17, 10_000):
        monkeypatch.setattr(noise, "_CHUNK_BYTES", budget)
        size = noise._chunk_faults(table)
        cut_cnot |= any((lo - a) % 15 for lo in range(size, table.count, size)
                        for a, b in cnot_blocks if a < lo < b)
        # the X side's all-zero signature is first seen after the first chunk
        first_clean |= size <= first_undetected_x
        calls.clear()
        chunked = noise.build_detector_model(model.circuit, model.p, model.basis)
        # one run a chunk, of its distinct flips, never more than its faults
        chunks = [(lo, min(lo + size, table.count)) for lo in range(0, table.count, size)]
        assert calls == distinct_flips(table, chunks)
        assert all(n <= hi - lo for n, (lo, hi) in zip(calls, chunks))
        assert_same_model(model_digest(chunked), whole)
    assert cut_cnot and first_clean


def test_model_matches_per_fault_propagation(model):
    """The build equals the per-fault oracle: every fault propagated alone,
    one scenario each, and the signatures merged by ``np.unique``."""
    table = model.fault_table
    ids = np.arange(table.count)
    res = propagate_frames(model.circuit, table.count, *table.frame_flips(ids, ids))
    priors = table.priors(model.p)
    for side, (detectors, logicals) in noise.side_rows(res, model.circuit.code, model.basis).items():
        sm = getattr(model, side.lower())
        stacked = np.vstack([detectors, logicals])
        signatures = BinMatrix(len(stacked), table.count, stacked).transpose().words
        merged, merged_priors, provenance = reference_merge(signatures, priors)
        rows = BinMatrix(len(merged), len(stacked), merged).transpose().words
        assert np.array_equal(sm.matrix.words, rows[: len(detectors)])
        assert np.array_equal(sm.logical.words, rows[len(detectors) :])
        assert sm.priors.tobytes() == merged_priors.tobytes()
        assert len(sm.provenance) == len(provenance)
        assert all(np.array_equal(p, q) for p, q in zip(sm.provenance, provenance))


def test_model144_build_memory_bound(model144):
    """The chunked build of bb144 with 12 cycles stays under 40 MB traced."""
    tracemalloc.start()
    try:
        noise.build_detector_model(model144.circuit, model144.p, model144.basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def merge(signatures, priors, cuts=()):
    """``_SignatureMerge``'s side model of signature rows, all detector rows,
    fed in chunks split at cuts."""
    merger = _SignatureMerge(64 * signatures.shape[1], 0)
    for part in np.split(signatures, cuts):
        # each distinct row keyed once, as a chunk's sets are, in an order the merge must undo
        distinct, rows = np.unique(part, axis=0, return_inverse=True)
        merger.add(distinct[::-1], len(distinct) - 1 - rows.reshape(-1))
    return merger.result(priors, block_rows=1)


def reference_merge(signatures, priors):
    """The merge by ``np.unique``: distinct rows in numpy's row order."""
    merged, inverse = np.unique(signatures, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    merged_priors = np.zeros(len(merged))
    np.add.at(merged_priors, inverse, priors)
    provenance = [np.flatnonzero(inverse == c) for c in range(len(merged))]
    keep = merged.any(axis=1)
    return (merged[keep], np.minimum(merged_priors, 1.0 - 1e-9)[keep],
            [p for p, k in zip(provenance, keep) if k])


TOP = 1 << 63


@pytest.mark.parametrize("rows", [
    # duplicates (three of [1, 0, 5], whose prior sum is capped), zero
    # rows, rows that differ only in the last word, and word 0 with bit
    # 63 set, which a signed comparison would put first
    [[1, 0, 5], [0, 0, 0], [TOP, 2, 0], [1, 0, 4], [1, 0, 5], [0, 0, 0],
     [TOP | 1, 0, 0], [1, 0, 5], [0, 0, 1], [TOP, 2, 0], [3, 7, 9]],
    [[2, 0, 1]],
    [[0, 0, 0]],
])
def test_merge_signatures_matches_unique(rows):
    signatures = np.array(rows, dtype=np.uint64)
    priors = np.random.default_rng(len(rows)).uniform(0.4, 0.6, len(rows))
    want, want_priors, want_provenance = reference_merge(signatures, priors)
    for cuts in ([], [1], [2, 3, 7]):
        sm = merge(signatures, priors, cuts)
        assert np.array_equal(sm.matrix.transpose().words, want)
        assert sm.logical.rows == 0 and sm.logical.cols == len(want)
        assert np.array_equal(sm.priors, want_priors)
        assert len(sm.provenance) == len(want_provenance)
        assert all(np.array_equal(p, q) for p, q in zip(sm.provenance, want_provenance))
        assert all(np.all(np.diff(p) > 0) for p in sm.provenance)


def test_merge_signatures_orders_words_unsigned():
    signatures = np.array([[TOP, 0], [0, 0], [1, TOP], [1, 1]], dtype=np.uint64)
    for cuts in ([], [2]):
        sm = merge(signatures, np.full(4, 0.6), cuts)
        assert sm.matrix.transpose().words.tolist() == [[1, 1], [1, TOP], [TOP, 0]]
        assert sm.fault_column.tolist() == [2, -1, 1, 0]
        assert [p.tolist() for p in sm.provenance] == [[3], [2], [0]]


def test_sampled_batch_golden(model):
    assert batch_digest(model, sample(model, 40, 7)) == SAMPLE_SHA


def test_detector_blocks_difference_consecutive_readings(model):
    """Each detector block is a check's reading XORed with its previous one;
    the final block's reading is the check applied to the final data error."""
    code = model.circuit.code
    lm = code.lm
    batch = arrays(model, sample(model, 40, 7))
    for syndromes, raw, checks, frame in (
        (batch["x_syndromes"], batch["raw_z_checks"], code.hz, batch["alpha"]),
        (batch["z_syndromes"], batch["raw_x_checks"], code.hx, batch["beta"]),
    ):
        readout = checks.to_dense().astype(np.int64) @ frame.T.astype(np.int64) % 2
        assert np.array_equal(syndromes[:, -lm:], readout.T ^ raw[:, -lm:])
        assert np.array_equal(syndromes[:, lm:-lm], raw[:, lm:] ^ raw[:, :-lm])
        assert np.array_equal(syndromes[:, :lm], raw[:, :lm])
        assert syndromes[:, -lm:].any()
    # a data fault no longer flips the final block: columns of weight <= 6
    # (12 with a raw final block) and rows of weight <= 35 (204)
    for side in (model.x, model.z):
        max_column, max_row = side.sparsity()
        assert max_column <= 6 and max_row <= 35


@pytest.mark.parametrize("name", ["model", "model144"])
def test_fault_column_inverts_provenance(name, request):
    """Each fault id's column, -1 exactly for the faults no column lists:
    those merged into the dropped all-zero signature."""
    model = request.getfixturevalue(name)
    for sm in (model.x, model.z):
        assert sm.fault_column.dtype == np.int64
        assert len(sm.fault_column) == model.fault_table.count
        assert sm.fault_column.min() >= -1
        listed = np.zeros(model.fault_table.count, dtype=bool)
        for col, members in enumerate(sm.provenance):
            assert np.all(sm.fault_column[members] == col)
            listed[members] = True
        assert np.array_equal(sm.fault_column < 0, ~listed)


def test_forced_single_faults_reproduce_provenance(model):
    table = model.fault_table
    faults = np.random.default_rng(0).choice(table.count, size=200, replace=False)
    batch = arrays(model, forced(model, [[int(f)] for f in faults]))
    code = model.circuit.code
    lm = code.lm
    for side, syndromes, logicals, checks, frame in (
        ("x", batch["x_syndromes"], batch["logical_x"], code.hz, batch["alpha"]),
        ("z", batch["z_syndromes"], batch["logical_z"], code.hx, batch["beta"]),
    ):
        sm = getattr(model, side)
        cols = sm.fault_column[faults]  # -1 reads the appended zero column
        det = np.hstack([sm.matrix.to_dense(), np.zeros((sm.matrix.rows, 1), np.uint8)])
        log = np.hstack([sm.logical.to_dense(), np.zeros((sm.logical.rows, 1), np.uint8)])
        raw = np.hstack([sm.readout_matrix.to_dense(), np.zeros((sm.matrix.rows, 1), np.uint8)])
        assert np.array_equal(syndromes, det[:, cols].T)
        assert np.array_equal(logicals, log[:, cols].T)
        # the readout matrix's final block is the check applied to the final data error
        readout = checks.to_dense().astype(np.int64) @ frame.T.astype(np.int64) % 2
        assert np.array_equal(raw[:, cols].T,
                              np.hstack([syndromes[:, :-lm], readout.T]))
        assert sm.readout_matrix is sm.readout_matrix  # built once per model


def test_forced_multi_fault_is_xor_of_singles(model):
    rng = np.random.default_rng(1)
    f, g = (int(x) for x in rng.choice(model.fault_table.count, size=2, replace=False))
    scenarios = [[int(x) for x in rng.choice(model.fault_table.count, size=rng.integers(2, 5))]
                 for _ in range(20)]
    scenarios += [[f, f], [f, g, f], []]
    singles_ids = sorted({x for s in scenarios for x in s})
    singles = forced(model, [[x] for x in singles_ids])
    multi = forced(model, scenarios)
    row = {x: i for i, x in enumerate(singles_ids)}
    for name in FIELDS:
        got = getattr(multi, name)
        one = getattr(singles, name)
        for j, s in enumerate(scenarios):
            want = np.zeros(got.shape[1], np.uint8)
            for x in s:
                want ^= one[row[x]]
            assert np.array_equal(got[j], want), (name, s)
    assert not any(getattr(multi, name)[-3].any() for name in FIELDS)  # [f, f] cancels
    assert all(np.array_equal(getattr(multi, name)[-2], getattr(singles, name)[row[g]])
               for name in FIELDS)


def test_forced_fault_outside_table_rejected(model):
    with pytest.raises(ValueError):
        forced(model, [[model.fault_table.count]])
    with pytest.raises(ValueError):
        forced(model, [[0], [-1]])


@pytest.mark.parametrize("p", [float("nan"), -0.1, 1.5])
def test_probability_outside_unit_interval_rejected(model, p):
    with pytest.raises(ValueError, match="p must be a probability"):
        noise.build_detector_model(model.circuit, p, model.basis)
    with pytest.raises(ValueError, match="p must be a probability"):
        sample(model, 1, 0, p=p)


def test_zero_noise_flips_nothing(model):
    batch = sample(model, 10, 3, p=0.0)
    assert not any(getattr(batch, name).any() for name in FIELDS)


def test_sampling_independent_of_batching(model):
    # 70 shots span two words, while a one-shot call walks one-word views
    whole = sample(model, 70, 5, p=0.01)
    parts = [sample(model, 1, 5, p=0.01, first_shot=j) for j in range(70)]
    for name in FIELDS:
        assert np.array_equal(getattr(whole, name),
                              np.vstack([getattr(b, name) for b in parts])), name


def reference_draw(circuit, p, seed, shot):
    """One shot's fault ids by the stream contract, walking the steps in turn."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, shot]))
    faulty = rng.random(sum(len(step.qubits) for step in circuit.steps)) < p
    firsts, ks = [], []  # each faulty operation's class-0 fault id and class count
    start = offset = 0
    for step in circuit.steps:
        nq = len(step.qubits)
        k = {"cnot": 15, "idle": 3}.get(step.kind, 1)
        for g in np.flatnonzero(faulty[start : start + nq]):
            firsts.append(offset + int(g) * k)
            ks.append(k)
        start, offset = start + nq, offset + nq * k
    classes = rng.integers(0, np.array(ks, dtype=np.int64))
    return [first + c for first, c in zip(firsts, classes.tolist())]


@pytest.mark.parametrize("p", [0.0, 0.001, 0.02, 0.2, 1.0])
def test_draw_follows_the_stream_contract(model, p):
    table = model.fault_table
    for shot in range(100):
        got = table.draw(p, np.random.Philox(key=3, counter=[0, 0, 0, shot]))
        assert got.tolist() == reference_draw(model.circuit, p, 3, shot), shot


# Upper 1e-4 quantiles of the chi-square distribution with 14, 2 and 3
# degrees of freedom.
CHI2_BOUND = {14: 42.58, 2: 18.42, 3: 21.11}


def chi2(counts, expected):
    return float(((counts - expected) ** 2 / expected).sum())


def test_draw_matches_the_noise_model(model):
    """Seeded draws against the model itself, not against draw's arithmetic.

    Each operation fails with probability p, at most once a shot, and a
    faulty CNOT or idle takes one of its 15 or 3 classes uniformly.
    """
    table, p, shots = model.fault_table, 0.02, 2000
    n_ops = int(table.op_start[-1])
    draws = [table.draw(p, np.random.Philox(key=11, counter=[0, 0, 0, j])) for j in range(shots)]
    faults = np.concatenate(draws)
    assert abs(faults.size / shots - n_ops * p) < 4 * np.sqrt(n_ops * p * (1 - p) / shots)
    # each step's fault ids in (operation, class) order, from the circuit
    kind = np.array([step.kind for step in model.circuit.steps])
    nq = np.array([len(step.qubits) for step in model.circuit.steps])
    k = np.array([{"cnot": 15, "idle": 3}.get(name, 1) for name in kind])
    first_id = np.concatenate([[0], np.cumsum(nq * k)])
    step = np.searchsorted(first_id, faults, side="right") - 1
    op, cls = np.divmod(faults - first_id[step], k[step])
    shot = np.repeat(np.arange(shots), [len(d) for d in draws])
    assert np.unique(np.stack([shot, step, op]), axis=1).shape[1] == faults.size
    kinds = np.unique(kind)
    ops_per_kind = np.array([nq[kind == name].sum() for name in kinds])
    faulty_per_kind = np.array([(kind[step] == name).sum() for name in kinds])
    assert chi2(faulty_per_kind, faults.size * ops_per_kind / n_ops) < CHI2_BOUND[len(kinds) - 1]
    for name, n_classes in (("cnot", 15), ("idle", 3)):
        counts = np.bincount(cls[kind[step] == name], minlength=n_classes)
        assert chi2(counts, counts.sum() / n_classes) < CHI2_BOUND[n_classes - 1], name


def test_sampled_faults_force_the_same_batch(model):
    """A batch's drawn fault ids, forced back in, give the batch bit for bit."""
    batch = sample(model, 40, 7, p=0.01)
    assert np.all(np.diff(batch.fault_shots) >= 0) and batch.faults.size > 40
    again = forced(model, [batch.faults[batch.fault_shots == j].tolist() for j in range(40)])
    for name in FIELDS:
        assert np.array_equal(getattr(again, name), getattr(batch, name)), name


def test_sampled_faults_reproduce_syndromes_through_provenance(model):
    """Each shot's drawn fault ids, mapped to their columns, XOR to its syndromes and flips."""
    batch = sample(model, 40, 11)
    assert batch.faults.size > 40
    for side, syndromes, logicals in (("x", batch.x_syndromes, batch.logical_x),
                                      ("z", batch.z_syndromes, batch.logical_z)):
        sm = getattr(model, side)
        cols = sm.fault_column[batch.faults]
        kept = cols >= 0
        error = np.zeros((batch.shots, sm.n_columns), dtype=np.int64)
        np.add.at(error, (batch.fault_shots[kept], cols[kept]), 1)
        error %= 2
        assert np.array_equal(syndromes, error @ sm.matrix.to_dense().T % 2)
        assert np.array_equal(logicals, error @ sm.logical.to_dense().T % 2)


@pytest.mark.parametrize("name", ["bb72", "bb144"])
def test_automorphism_gadgets_realise_shifts(name):
    code = catalog_code(name)
    for kind in ("A", "B"):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                if j == k:
                    continue
                circ = build_automorphism_circuit(code, kind, j, k)
                assert np.array_equal(automorphism_data_permutation(circ),
                                      shift_permutation(code, circ.shift)), (kind, j, k)
