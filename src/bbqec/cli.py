"""Monte Carlo estimates of a BB code's logical failure rates under circuit noise.

    bbqec run --code bb144 --cycles 12 --p 0.005 --shots 200 --seed 7 --bp-iters 100

builds the code, its logical basis, the syndrome circuit with N_c
cycles and the detector model at p.  It then samples ``SAMPLE_BATCH``
shots per call and decodes each side of each shot on its own:
``BPOSDDecoder.bp_marginals``, then ``BPOSDDecoder.decode``, which runs
OSD where BP did not converge.  A side fails when its decoded logical
action differs from the sampled one, and a shot fails when either side
does.  Shots are keyed by (seed, shot index), so no result depends on
the batch size.

The flag ``--bp-iters`` sets ``BPConfig.max_iters``; left out, it keeps
the field's default.  One JSON report goes to standard output: the
config, the seed and the git revision, each stage's wall time, BP's
iteration histogram and the share of sides sent to OSD, the failure
counts with Wilson 95% intervals, the indices of the failing shots of
each side, and the per-cycle rate p_L = 1 - (1 - P_L)^(1/N_c) of the
any-logical failure rate P_L.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .circuit import build_sm_circuit
from .code import CODE_CATALOG, catalog_code
from .decode import BPConfig, BPOSDDecoder, OSDConfig
from .logical import find_basis_polynomials
from .noise import build_detector_model, sample_circuit_noise

SAMPLE_BATCH = 64  # shots per sampler call
_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def _wilson(k: int, n: int) -> list[float]:
    """Wilson score 95% interval for k failures in n >= 1 trials."""
    phat, z2 = k / n, _Z95 * _Z95
    centre = (phat + z2 / (2 * n)) / (1 + z2 / n)
    half = _Z95 * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n)) / (1 + z2 / n)
    return [max(0.0, centre - half), min(1.0, centre + half)]


def _failures(k: int, n: int) -> dict:
    return {"count": k, "of": n, "rate": k / n, "wilson95": _wilson(k, n)}


def _git_revision() -> str:
    """The source checkout's commit, with ``-dirty`` for uncommitted edits.

    "unknown" unless git tracks this file, so that a copy of the package
    inside another repository does not report that repository's commit.
    """
    here = Path(__file__).resolve()
    try:
        for args in (["ls-files", "--error-unmatch", here.name],
                     ["describe", "--always", "--dirty", "--abbrev=40"]):
            out = subprocess.run(["git", *args], cwd=here.parent, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode != 0:
                return "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run(code_name: str, cycles: int, p: float, shots: int, seed: int, bp: BPConfig) -> dict:
    """Sample and decode ``shots`` shots; returns the JSON report as a dict."""
    seconds = dict.fromkeys(("basis", "circuit", "model", "sample", "bp", "osd"), 0.0)
    t0 = time.perf_counter()
    code = catalog_code(code_name)
    basis = find_basis_polynomials(code)[0]
    t1 = time.perf_counter()
    circ = build_sm_circuit(code, cycles)
    t2 = time.perf_counter()
    model = build_detector_model(circ, p, basis)
    t3 = time.perf_counter()
    seconds.update(basis=t1 - t0, circuit=t2 - t1, model=t3 - t2)

    sides = {"x": model.x, "z": model.z}
    decoders = {side: BPOSDDecoder(sm.matrix, sm.priors, bp=bp, logical=sm.logical)
                for side, sm in sides.items()}
    failed = {side: np.zeros(shots, dtype=bool) for side in sides}
    iterations: Counter[int] = Counter()
    converged = 0
    for lo in range(0, shots, SAMPLE_BATCH):
        n = min(SAMPLE_BATCH, shots - lo)
        t0 = time.perf_counter()
        batch = sample_circuit_noise(circ, p, n, seed, basis, first_shot=lo,
                                     fault_table=model.fault_table)
        seconds["sample"] += time.perf_counter() - t0
        for side, dec in decoders.items():
            syndromes = getattr(batch, f"{side}_syndromes")
            truth = getattr(batch, f"logical_{side}")
            for j, s in enumerate(syndromes):
                t0 = time.perf_counter()
                marginals = dec.bp_marginals(s)
                t1 = time.perf_counter()
                out = dec.decode(s, marginals)
                seconds["osd"] += time.perf_counter() - t1
                seconds["bp"] += t1 - t0
                failed[side][lo + j] = not np.array_equal(out.logical.to_bits(), truth[j])
                iterations[out.iterations] += 1
                converged += out.converged

    n_failed = int((failed["x"] | failed["z"]).sum())
    # P_L and its interval's ends, each as a per-cycle rate
    per_cycle = [1 - (1 - x) ** (1 / cycles) for x in (n_failed / shots, *_wilson(n_failed, shots))]
    return {
        "config": {"code": code_name, "cycles": cycles, "p": p, "shots": shots, "seed": seed,
                   "bp": asdict(bp), "osd": asdict(OSDConfig()), "sample_batch": SAMPLE_BATCH},
        "git_revision": _git_revision(),
        "model": {side: dict(zip(("rows", "columns", "max_column_weight", "max_row_weight"),
                                 (sm.n_detector_rows, sm.n_columns, *sm.sparsity())))
                  for side, sm in sides.items()},
        "seconds": seconds,
        "bp": {"sides": 2 * shots, "osd_share": 1 - converged / (2 * shots),
               "iterations": {str(k): v for k, v in sorted(iterations.items())}},
        "failures": {
            **{side: _failures(int(f.sum()), shots) for side, f in failed.items()},
            "sides": _failures(int(failed["x"].sum() + failed["z"].sum()), 2 * shots),
            "any_logical": _failures(n_failed, shots),
        },
        "per_cycle": {"rate": per_cycle[0], "wilson95": per_cycle[1:]},
        "failed_shots": {side: np.flatnonzero(f).tolist() for side, f in failed.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="bbqec", description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="sample and decode shots; print a JSON report")
    r.add_argument("--code", required=True, choices=sorted(CODE_CATALOG))
    r.add_argument("--cycles", type=int, required=True)
    r.add_argument("--p", type=float, required=True)
    r.add_argument("--shots", type=int, required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--bp-iters", type=int, help="BPConfig.max_iters")
    args = ap.parse_args(argv)
    if args.cycles < 1 or args.shots < 1 or args.seed < 0:
        ap.error("--cycles and --shots must be positive and --seed non-negative")
    if not 0 <= args.p <= 1:
        ap.error("--p must be a probability")
    if args.seed >= 2**128:
        ap.error("--seed must be below 2**128, the size of a Philox key")
    try:
        bp = BPConfig() if args.bp_iters is None else BPConfig(max_iters=args.bp_iters)
    except ValueError as exc:
        ap.error(str(exc))
    report = run(args.code, args.cycles, args.p, args.shots, args.seed, bp)
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
