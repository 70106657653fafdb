"""Workloads, correctness checks and measurement of one benchmark run.

Everything here drives ``bbqec`` through its public API, always through
the module attribute (``noise.build_detector_model``, not an imported
name) so that the wrappers of a traced run see every call.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from bbqec import circuit, code, decode, gf2, logical, noise

import spans as spans_mod
from stats import OpTally, summarize, wilson_interval

# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
# Stream of the probe shots: the first min_ops shots of every run, whatever
# its seed, so that their logical error rate is one exact figure per code
# and decoder rather than a binomial sample that moves with the seed.
PROBE_SEED = 0
# Single faults forced through the sampler and compared with the model.
FORCED_FAULTS = 200
# Shots of the noiseless check, which is also the warm-up.
NOISELESS_SHOTS = 4


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration.

    ``min_ops`` shots or trials always run, however long they take; the
    decode digest, logical error rate and distance bound cover exactly
    these.  The shots among them are the probe shots (PROBE_SEED), the
    trials come from the run's seed.  More operations, all from the
    run's seed, follow until the run's seconds are used up.
    """

    name: str
    code: str
    cycles: int
    p: float
    kind: str  # "shots": sample and decode both sides; "dcirc": distance trials
    min_ops: int
    bp_max_iters: int | None  # None keeps the BPConfig default
    why: str

    @property
    def op_name(self) -> str:
        return "shot" if self.kind == "shots" else "trial"

    def bp_config(self) -> decode.BPConfig:
        if self.bp_max_iters is None:
            return decode.BPConfig()
        return decode.BPConfig(max_iters=self.bp_max_iters)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bb72-p003", "bb72", 6, 0.003, "shots", 15, None,
            "high noise, small model, default BP cap of 1e4: BP cost and capped "
            "sides dominate; heavy-tailed per-shot cost",
        ),
        Workload(
            "bb144-p001", "bb144", 12, 0.001, "shots", 15, 100,
            "low noise, large model, BP cap 100: OSD on every side dominates "
            "decoding, the model build dominates set-up and memory",
        ),
        Workload(
            "bb144-dcirc", "bb144", 12, 0.001, "dcirc", 12, None,
            "circuit-distance bound on the Z side: one dense extra row, uniform "
            "weights, a fresh decoder per trial, BP always at its 300 cap, no sampling",
        ),
    )
}

# Stated in every report, so that the decoder's failure rate is read as
# measured rather than as a property of the codes.
NOTES = (
    "logical_error_rate includes the effect of the OSD column-ordering defect "
    "(BPOSDDecoder.osd_postprocess ranks columns by max(q, 1-q)); no seed, shot count "
    "or decoder setting was chosen to lower it, and the probe stream is seed 0, "
    "the first one taken"
)


@dataclass
class Setup:
    code: object
    basis: object
    circuit: object
    model: object
    decoders: dict
    # peak RSS growth over the model build; a high-water mark, so only
    # the first set-up of a process measures it
    model_rss_mb: float


def set_up(w: Workload) -> Setup:
    """Code, logical basis, circuit, detector model and side decoders."""
    c = code.catalog_code(w.code)
    basis = logical.find_basis_polynomials(c)[0]
    circ = circuit.build_sm_circuit(c, w.cycles)
    rss_before = rss_mb()
    model = noise.build_detector_model(circ, w.p, basis)
    model_rss = peak_rss_mb() - rss_before
    bp = w.bp_config()
    decoders = {
        side: decode.BPOSDDecoder(sm.matrix, sm.priors, bp=bp, logical=sm.logical)
        for side, sm in (("x", model.x), ("z", model.z))
    }
    return Setup(c, basis, circ, model, decoders, model_rss)


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def check_forced_faults(s: Setup, seed: int) -> dict:
    """Single faults through the sampler reproduce their merged columns.

    The column of each fault is found through ``SideModel.provenance``;
    a fault absent from every column merged into the dropped all-zero
    column and must leave no trace.
    """
    table = s.model.fault_table
    rng = np.random.default_rng([seed, 1])
    faults = rng.choice(table.count, size=min(FORCED_FAULTS, table.count), replace=False)
    batch = noise.sample_circuit_noise(
        s.circuit, s.model.p, len(faults), seed, s.basis,
        forced_faults=[[int(f)] for f in faults], fault_table=table,
    )
    mismatches = 0
    for side, syndromes, logicals in (
        ("x", batch.x_syndromes, batch.logical_x),
        ("z", batch.z_syndromes, batch.logical_z),
    ):
        sm = getattr(s.model, side)
        column_of = np.full(table.count, -1, dtype=np.int64)
        for col, members in enumerate(sm.provenance):
            column_of[members] = col
        det = sm.matrix.to_dense()
        log = sm.logical.to_dense()
        for j, f in enumerate(faults):
            col = column_of[f]
            want_s = det[:, col] if col >= 0 else np.zeros(det.shape[0], np.uint8)
            want_l = log[:, col] if col >= 0 else np.zeros(log.shape[0], np.uint8)
            if not (np.array_equal(syndromes[j], want_s) and np.array_equal(logicals[j], want_l)):
                mismatches += 1
    return {"forced_faults": int(len(faults)), "sides": 2, "mismatches": mismatches}


def check_noiseless(s: Setup, seed: int) -> dict:
    """p = 0 flips nothing, and a zero syndrome decodes to no logical."""
    batch = noise.sample_circuit_noise(s.circuit, 0.0, NOISELESS_SHOTS, seed, s.basis)
    flips = int(sum(np.count_nonzero(a) for a in (
        batch.x_syndromes, batch.z_syndromes, batch.logical_x, batch.logical_z)))
    nontrivial = 0
    for dec in s.decoders.values():
        out = dec.decode(np.zeros(dec.matrix.rows, dtype=np.uint8))
        nontrivial += int(out.logical is None or not out.logical.is_zero())
    return {"shots": NOISELESS_SHOTS, "flips": flips, "nontrivial_zero_decodes": nontrivial}


def satisfies(matrix, xi, syndrome) -> bool:
    return np.array_equal(matrix.mul_vec(xi).to_bits(), np.asarray(syndrome, np.uint8))


# ---------------------------------------------------------------------------
# Timed loops
# ---------------------------------------------------------------------------


class Loop:
    """Timed operations, resumable across set-ups.

    A run alternates set-ups and slices of its timed loop: the machine's
    speed drifts over tens of seconds, and slices spread over the whole
    run sample more of that drift than one stretch would.  Operation
    numbering, and with it the inputs, carries on from slice to slice.
    """

    def __init__(self, w: Workload, seed: int, tally: OpTally):
        self.w = w
        self.seed = seed
        self.tally = tally
        self.ops = 0
        self.busy = 0.0
        self.latencies: list[float] = []
        self.violations = 0
        self.digest = hashlib.sha256()

    def run(self, s: Setup, until_ops: int, seconds: float) -> None:
        """Run operations until ``until_ops`` are done and ``seconds`` passed."""
        start = time.perf_counter()
        while self.ops < until_ops or time.perf_counter() - start < seconds:
            self.step(s)

    def step(self, s: Setup) -> None:
        raise NotImplementedError

    def result(self) -> dict:
        return {"ops": self.ops, "busy_s": self.busy, "latencies_ms": self.latencies,
                "syndrome_violations": self.violations, "digest": self.digest.hexdigest()}


def _decode_both(s: Setup, syn_x, syn_z):
    return s.decoders["x"].decode(syn_x), s.decoders["z"].decode(syn_z)


class ShotLoop(Loop):
    """Sample one shot per step and decode both of its sides."""

    def __init__(self, w, seed, tally):
        super().__init__(w, seed, tally)
        self.prefix_ok = 0
        self.prefix_fail = 0

    def step(self, s: Setup) -> None:
        stream = PROBE_SEED if self.ops < self.w.min_ops else self.seed
        t0 = time.perf_counter()
        batch = noise.sample_circuit_noise(s.circuit, self.w.p, 1, stream, s.basis,
                                           first_shot=self.ops)
        t1 = time.perf_counter()
        ok, outs = self.tally.run(_decode_both, s, batch.x_syndromes[0], batch.z_syndromes[0])
        t2 = time.perf_counter()
        self.busy += t2 - t0
        wrong = False
        if ok:
            self.latencies.append((t2 - t1) * 1e3)
            for side, out, syn, true_log in (
                ("x", outs[0], batch.x_syndromes[0], batch.logical_x[0]),
                ("z", outs[1], batch.z_syndromes[0], batch.logical_z[0]),
            ):
                if not satisfies(s.decoders[side].matrix, out.xi, syn):
                    self.violations += 1
                wrong |= not np.array_equal(out.logical.to_bits(), true_log)
        if self.ops < self.w.min_ops:
            if ok:
                self.prefix_ok += 1
                self.prefix_fail += int(wrong)
                self.digest.update(np.packbits(np.concatenate(
                    [outs[0].logical.to_bits(), outs[1].logical.to_bits()])).tobytes())
            else:
                self.digest.update(b"raised")
        self.ops += 1

    def result(self) -> dict:
        lo, hi = wilson_interval(self.prefix_fail, self.prefix_ok)
        rate = self.prefix_fail / self.prefix_ok if self.prefix_ok else None
        return {**super().result(), "logical_failures": self.prefix_fail,
                "logical_shots": self.prefix_ok, "logical_error_rate": rate,
                "wilson95": [lo, hi]}


def trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])


class DcircLoop(Loop):
    """One circuit_distance_upper_bound trial per step on the Z side."""

    def __init__(self, w, seed, tally):
        super().__init__(w, seed, tally)
        self.weights: list[int | None] = []

    def step(self, s: Setup) -> None:
        side = s.model.z
        t0 = time.perf_counter()
        ok, est = self.tally.run(decode.circuit_distance_upper_bound, side, trials=1,
                                 seed=trial_seed(self.seed, self.ops))
        dt = time.perf_counter() - t0
        self.busy += dt
        if ok:
            self.latencies.append(dt * 1e3)
            xi = est.witness
            if (xi is None or xi.weight != est.upper_bound
                    or not side.matrix.mul_vec(xi).is_zero() or side.logical.mul_vec(xi).is_zero()):
                self.violations += 1
        if self.ops < self.w.min_ops:
            self.weights.append(est.upper_bound if ok else None)
            self.digest.update(est.witness.words.tobytes() if ok and est.witness else b"raised")
        self.ops += 1

    def result(self) -> dict:
        found = [x for x in self.weights if x is not None]
        return {**super().result(), "weights": self.weights,
                "dcirc_bound": min(found) if found else None}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def _on_init(tr, span, result, args, kwargs):
    span.attrs["edges"] = getattr(args[0], "n_edges", None)


def _on_bp(tr, span, result, args, kwargs):
    _, hard, converged, iters = result
    cap = args[0].bp_cfg.max_iters
    span.attrs.update(iters=int(iters), converged=bool(converged),
                      capped=(not converged and iters >= cap))
    parent = tr.parent_of(span)
    if parent is not None and parent.name == "decode.decode":
        parent.attrs["bp_hard"] = np.packbits(hard).tobytes()


def _on_osd(tr, span, result, args, kwargs):
    parent = tr.parent_of(span)
    if parent is not None and parent.name == "decode.decode":
        parent.attrs["osd"] = True


def _on_decode(tr, span, result, args, kwargs):
    hard = span.attrs.pop("bp_hard", None)
    if span.attrs.pop("osd", False):
        span.attrs["osd_wasted"] = bool(
            result.converged and hard is not None
            and np.packbits(result.xi.to_bits()).tobytes() == hard)


def _on_sample(tr, span, result, args, kwargs):
    span.attrs["shots"] = result.shots
    span.attrs["forced"] = kwargs.get("forced_faults") is not None


def trace_targets() -> list[tuple]:
    """The public entry points a traced run wraps."""
    dec = decode.BPOSDDecoder
    return [
        (code, "catalog_code", "code.catalog_code", None),
        (logical, "find_basis_polynomials", "logical.find_basis_polynomials", None),
        (circuit, "build_sm_circuit", "circuit.build_sm_circuit", None),
        (noise, "build_detector_model", "noise.build_detector_model", None),
        (noise, "enumerate_faults", "noise.enumerate_faults", None),
        (noise, "build_fault_table", "noise.build_fault_table", None),
        (noise, "propagate_frames", "circuit.propagate_frames", None),
        (noise, "sample_circuit_noise", "noise.sample_circuit_noise", _on_sample),
        (decode, "circuit_distance_upper_bound", "decode.circuit_distance_upper_bound", None),
        (dec, "__init__", "decode.BPOSDDecoder", _on_init),
        (dec, "bp_marginals", "decode.bp_marginals", _on_bp),
        (dec, "osd_postprocess", "decode.osd_postprocess", _on_osd),
        (dec, "decode", "decode.decode", _on_decode),
        (gf2.BinMatrix, "rref", "gf2.rref", None),
    ]


# End-to-end metrics of the last output line, common to every workload.
# An "op" is the workload's operation, a decoded shot or a distance trial.
# quality_loss is the workload's decoding quality, lower is better and
# exact for a given code and decoder: the upper end of the Wilson 95%
# interval of the probe shots' logical error rate (never 0, even when no
# shot fails), or the distance bound over the code distance.  Per-op
# latency stays in the readable report only: the loop is closed with one
# client, so its median carries what ops_per_s carries with a wider
# spread, and at the 12 to 30 ops a run affords there is no tail.
END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "quality_loss": "ratio",
}

# name -> (unit, spans it is computed from)
PER_LAYER = {
    "decode.bp_ms_per_iter": ("ms", ["decode.bp_marginals"]),
    "decode.bp_s": ("s", ["decode.bp_marginals"]),
    "decode.bp_iters_p50": ("count", ["decode.bp_marginals"]),
    "decode.bp_iters_tail": ("count", ["decode.bp_marginals"]),
    "decode.bp_converged_frac": ("ratio", ["decode.bp_marginals"]),
    "decode.bp_capped_frac": ("ratio", ["decode.bp_marginals"]),
    "decode.osd_calls_per_op": ("count", ["decode.osd_postprocess"]),
    "decode.osd_ms_per_call": ("ms", ["decode.osd_postprocess"]),
    "decode.osd_s": ("s", ["decode.osd_postprocess"]),
    "decode.osd_wasted_frac": ("ratio", ["decode.osd_postprocess", "decode.bp_marginals",
                                         "decode.decode"]),
    "decode.init_ms": ("ms", ["decode.BPOSDDecoder"]),
    "decode.edges": ("count", ["decode.BPOSDDecoder"]),
    "noise.model_s": ("s", ["noise.build_detector_model"]),
    "noise.fault_table_s": ("s", ["noise.build_fault_table"]),
    "noise.model_rss_mb": ("MB", []),
    "circuit.propagate_s": ("s", ["circuit.propagate_frames"]),
    "circuit.propagate_calls": ("count", ["circuit.propagate_frames"]),
    "noise.faults": ("count", []),
    "noise.columns_x": ("count", []),
    "noise.columns_z": ("count", []),
    "noise.detector_rows": ("count", []),
    "noise.max_row_weight": ("count", []),
    "noise.sample_ms_per_shot": ("ms", ["noise.sample_circuit_noise"]),
    "logical.basis_s": ("s", ["logical.find_basis_polynomials"]),
    "logical.basis_decode_calls": ("count", ["logical.find_basis_polynomials", "decode.decode"]),
    "gf2.rref_s": ("s", ["gf2.rref"]),
    "gf2.rref_calls": ("count", ["gf2.rref"]),
    "code.build_s": ("s", ["code.catalog_code"]),
    "circuit.build_s": ("s", ["circuit.build_sm_circuit"]),
}


def model_counts(model) -> dict:
    return {
        "noise.faults": model.pre_merge_count,
        "noise.columns_x": model.x.n_columns,
        "noise.columns_z": model.z.n_columns,
        "noise.detector_rows": model.x.n_detector_rows,
        "noise.max_row_weight": max(model.x.sparsity()[1], model.z.sparsity()[1]),
    }


def per_layer_metrics(tracer, missing: list[str], n_setups: int, n_ops: int,
                      counts: dict, model_rss_mb: float) -> tuple[dict, list[str], list[str]]:
    """Per-layer values from the spans of one traced run.

    Set-up layers are averaged over the run's set-ups; decode layers
    cover the timed phase.  Returns (metrics, names not applicable to
    this workload, names whose spans are missing).
    """
    sp = tracer.spans
    phase = spans_mod.phases(sp)
    in_basis = spans_mod.ancestors_named(sp, "logical.find_basis_polynomials")

    def pick(name, where=None):
        return [s for s, ph in zip(sp, phase) if s.name == name and (where is None or ph == where)]

    def per_setup_total(name):
        return sum(s.duration for s in pick(name, "setup")) / n_setups

    bp = pick("decode.bp_marginals", "measure")
    osd = pick("decode.osd_postprocess", "measure")
    decodes = pick("decode.decode", "measure")
    iters = [s.attrs["iters"] for s in bp]
    it = summarize(iters)
    # decoders the timed loop builds, else those it uses from set-up
    inits = pick("decode.BPOSDDecoder", "measure") or [
        s for s, b, ph in zip(sp, in_basis, phase)
        if s.name == "decode.BPOSDDecoder" and ph == "setup" and not b]
    osd_done = [s for s in decodes if "osd_wasted" in s.attrs]
    basis_decodes = sum(1 for s, b, ph in zip(sp, in_basis, phase)
                        if s.name == "decode.decode" and b and ph == "setup")
    # a workload that samples nothing in its timed loop reports the
    # warm-up's sampling, and the metric is flagged as not applicable
    samples = [s for s in pick("noise.sample_circuit_noise") if not s.attrs["forced"]]
    timed_samples = pick("noise.sample_circuit_noise", "measure")
    n_a = []
    if timed_samples:
        samples = timed_samples
    else:
        n_a.append("noise.sample_ms_per_shot")
    shots = sum(s.attrs["shots"] for s in samples)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "decode.bp_ms_per_iter": ratio(1e3 * sum(s.duration for s in bp), sum(iters)),
        "decode.bp_s": sum(s.duration for s in bp),
        "decode.bp_iters_p50": it["p50"],
        "decode.bp_iters_tail": it["tail"],
        "decode.bp_converged_frac": ratio(sum(s.attrs["converged"] for s in bp), len(bp)),
        "decode.bp_capped_frac": ratio(sum(s.attrs["capped"] for s in bp), len(bp)),
        "decode.osd_calls_per_op": ratio(len(osd), n_ops),
        "decode.osd_ms_per_call": ratio(1e3 * sum(s.duration for s in osd), len(osd)),
        "decode.osd_s": sum(s.duration for s in osd),
        "decode.osd_wasted_frac": ratio(sum(s.attrs["osd_wasted"] for s in osd_done),
                                        len(osd_done)),
        "decode.init_ms": ratio(1e3 * sum(s.duration for s in inits), len(inits)),
        "decode.edges": ratio(sum(s.attrs["edges"] for s in inits), len(inits)),
        "noise.model_s": per_setup_total("noise.build_detector_model"),
        "noise.fault_table_s": per_setup_total("noise.build_fault_table"),
        "noise.model_rss_mb": model_rss_mb,
        "circuit.propagate_s": per_setup_total("circuit.propagate_frames"),
        "circuit.propagate_calls": len(pick("circuit.propagate_frames", "setup")) / n_setups,
        "noise.sample_ms_per_shot": ratio(1e3 * sum(s.duration for s in samples), shots),
        "logical.basis_s": per_setup_total("logical.find_basis_polynomials"),
        "logical.basis_decode_calls": basis_decodes / n_setups,
        "gf2.rref_s": per_setup_total("gf2.rref"),
        "gf2.rref_calls": len(pick("gf2.rref", "setup")) / n_setups,
        "code.build_s": per_setup_total("code.catalog_code"),
        "circuit.build_s": per_setup_total("circuit.build_sm_circuit"),
        **counts,
    }
    gone = set(missing)
    absent = [name for name, (_, needs) in PER_LAYER.items() if gone.intersection(needs)]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in PER_LAYER.items() if name not in absent}
    return metrics, n_a, absent


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def rss_mb() -> float:
    """Current resident set size of this process."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = root / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": git_revision(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
        "executable": Path(sys.executable).name,
    }


def run_workload(w: Workload, seed: int, seconds: float, traced: bool, root: Path) -> dict:
    """Alternate set-ups with slices of the timed loop, checking outputs
    after the first set-up; returns the run report."""
    tracer = spans_mod.Tracer() if traced else None
    missing, restore = spans_mod.install(tracer, trace_targets()) if traced else ([], None)
    phase = tracer.span if traced else (lambda name: nullcontext())
    try:
        setup_times = []
        tally = OpTally()
        loop = (ShotLoop if w.kind == "shots" else DcircLoop)(w, seed, tally)
        for i in range(SETUP_REPEATS):
            s = None  # release the previous set-up before building the next
            gc.collect()
            t0 = time.perf_counter()
            with phase("setup"):
                s = set_up(w)
            setup_times.append(time.perf_counter() - t0)
            if i == 0:
                model_rss = s.model_rss_mb
                with phase("check"):
                    forced = check_forced_faults(s, seed)
                    noiseless = check_noiseless(s, seed)
            with phase("measure"):
                loop.run(s, until_ops=math.ceil(w.min_ops * (i + 1) / SETUP_REPEATS),
                         seconds=seconds / SETUP_REPEATS)
        # the high-water mark of the whole run: every slice of the loop,
        # and set-ups that each free the previous one before they build
        peak_rss = peak_rss_mb()
        m = loop.result()
    finally:
        if restore is not None:
            restore()

    lat = summarize(m["latencies_ms"])
    op = w.op_name
    if w.kind == "shots":
        quality = m["wilson95"][1] if m["logical_shots"] else None
        figure = {"logical_error_rate": {"value": m["logical_error_rate"], "unit": "ratio"}}
    else:
        bound = m["dcirc_bound"]
        quality = bound / s.code.distance_upper if bound is not None else None
        figure = {"dcirc_bound": {"value": bound, "unit": "count"}}
    # keyed by the BENCHMARK.json names, then what the readable report adds
    e2e = {
        "ops_per_s": {"value": len(m["latencies_ms"]) / m["busy_s"], "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        "quality_loss": {"value": quality, "unit": "ratio"},
        f"{op}_ms_p50": {"value": lat["p50"], "unit": "ms"},
        f"{op}_ms_tail": {"value": lat["tail"], "unit": "ms"},
        **figure,
    }

    checks = {
        "forced_faults": forced,
        "noiseless": noiseless,
        "syndrome_violations": m["syndrome_violations"],
    }
    correct = (forced["mismatches"] == 0 and noiseless["flips"] == 0
               and noiseless["nontrivial_zero_decodes"] == 0
               and m["syndrome_violations"] == 0
               and quality is not None)
    bp_cfg = w.bp_config()
    report = {
        "workload": w.name,
        "op_name": op,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "config": {**asdict(w), "bp": asdict(bp_cfg), "osd": asdict(decode.OSDConfig()),
                   "setup_repeats": SETUP_REPEATS, "probe_seed": PROBE_SEED},
        "environment": environment(root),
        "notes": NOTES,
        "correct": correct,
        "checks": checks,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "end_to_end": e2e,
        "details": {
            "latency_tail_percentile": lat["tail_percentile"],
            "latency_samples": lat["samples"],
            "latencies_ms": m["latencies_ms"],
            "setup_runs_s": setup_times,
            "digest": m["digest"],
            "digest_ops": w.min_ops,
            **{k: m[k] for k in ("logical_failures", "logical_shots", "wilson95", "weights")
               if k in m},
        },
    }
    if traced:
        counts = model_counts(s.model)
        metrics, n_a, absent = per_layer_metrics(tracer, missing, SETUP_REPEATS, m["ops"],
                                                 counts, model_rss)
        report["per_layer"] = metrics
        report["per_layer_n_a"] = n_a
        report["per_layer_missing"] = absent
        report["missing_spans"] = missing
        report["spans"] = spans_mod.profile(tracer.spans)
    return report
