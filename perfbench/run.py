"""Benchmark of the bbqec chain: code, basis, circuit, detector model,
sampling and BP-OSD decoding.

One workload, one fresh process:

    python3 perfbench/run.py --workload bb144-p001 --seed 1 --seconds 15 --trace 0

prints a readable report, writes it as JSON to ``perfbench/out/`` and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
run (``--trace 1``).  It exits 1 when a correctness check fails.

Every workload, untraced and traced, each in its own process, with the
trace overhead:

    python3 perfbench/run.py --all --seed 1 --seconds 15

Run from the root of a source checkout; the package is imported from
its ``src`` directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="workload name (see harness.WORKLOADS)")
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced, one process each")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(r: dict) -> None:
    name = r["workload"]
    print(f"== {name}  seed={r['seed']}  seconds={r['seconds']}  traced={r['traced']}")
    print(f"   config: {json.dumps(r['config'], sort_keys=True)}")
    print(f"   environment: {json.dumps(r['environment'], sort_keys=True)}")
    print(f"   note: {r['notes']}")
    op = r["op_name"]
    for metric, v in r["end_to_end"].items():
        label = f"  ({op}s per second)" if metric == "ops_per_s" else ""
        print(f"   {metric} = {fmt(v['value'])} {v['unit']}{label}")
    d = r["details"]
    print(f"   latency tail = p{d['latency_tail_percentile']} of {d['latency_samples']} samples;"
          f" set-ups (s): {', '.join(f'{t:.3f}' for t in d['setup_runs_s'])}")
    if "logical_failures" in d:
        lo, hi = d["wilson95"]
        print(f"   logical failures {d['logical_failures']}/{d['logical_shots']},"
              f" Wilson 95% [{lo:.4f}, {hi:.4f}]")
    if "weights" in d:
        print(f"   trial weights: {d['weights']}")
    print(f"   decode digest ({d['digest_ops']} ops): {d['digest']}")
    print(f"   attempted={r['attempted']} failed={r['failed']} correct={r['correct']}")
    print(f"   checks: {json.dumps(r['checks'], sort_keys=True)}")
    for err in r["errors"]:
        print("   error: " + err.replace("\n", "\n          "))
    if r["traced"]:
        n_a = set(r["per_layer_n_a"])
        for metric, v in r["per_layer"].items():
            flag = "  (n/a in timed loop; warm-up value)" if metric in n_a else ""
            print(f"   {metric} = {fmt(v['value'])} {v['unit']}{flag}")
        for metric in r["per_layer_missing"]:
            print(f"   {metric} = missing (span gone: {', '.join(r['missing_spans'])})")
        print("   spans (count, total s, self s):")
        for span, row in sorted(r["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"     {span:40s} {row['count']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f}")


def run_one(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # imports numpy, so only after the thread settings

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    report = harness.run_workload(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace), ROOT)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print_report(report)
    print(f"   report: {path.relative_to(ROOT)}")
    e2e = report["end_to_end"]
    metrics = report["per_layer"] if args.trace else {k: e2e[k] for k in harness.END_TO_END}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if report["correct"] else 1


def run_all(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    status = 0
    runs: dict[str, dict] = {}
    for name in harness.WORKLOADS:
        pair = {}
        for trace, key in ((0, "untraced"), (1, "traced")):
            path = OUT / f"{name}-seed{args.seed}-trace{trace}.json"
            path.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=1800)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not path.is_file():
                status = 1
            if path.is_file():
                pair[key] = json.loads(path.read_text())
        if "untraced" in pair and "traced" in pair:
            plain, traced = pair["untraced"]["end_to_end"], pair["traced"]["end_to_end"]
            overhead = {}
            for metric, v in plain.items():
                a, b = v["value"], traced[metric]["value"]
                if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                    overhead[metric] = {"delta": b - a, "unit": v["unit"],
                                        "relative": (b - a) / a if a else None}
            pair["trace_overhead"] = overhead
        runs[name] = pair

    print("\n== summary (untraced end-to-end; trace overhead = traced - untraced)")
    for name, pair in runs.items():
        for metric, v in pair.get("untraced", {}).get("end_to_end", {}).items():
            over = pair.get("trace_overhead", {}).get(metric)
            extra = ""
            if over is not None and over["relative"] is not None:
                extra = f"   overhead {over['delta']:+.4g} ({100 * over['relative']:+.1f}%)"
            print(f"   {name:12s} {metric:20s} {fmt(v['value']):>12s} {v['unit']}{extra}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"report-seed{args.seed}.json"
    path.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"   report: {path.relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bbqec" / "__init__.py").is_file():
        print(f"error: no bbqec sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
