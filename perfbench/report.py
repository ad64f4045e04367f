#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/report.py --workloads exchange,serve_rw --seeds 1-10
    python3 perfbench/report.py --summary-only

Each run goes through the command in BENCHMARK.json, from the repository
root. Every run also appends its full record to .bench_out/results.jsonl;
the summary reads that file and prints, per workload and metric, the median
of the untraced runs, the quartile spread as a share of the median (the
figure each end-to-end bound is checked against), the median of the traced
runs, and the tracing overhead: traced median minus untraced median.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_out" / "results.jsonl"


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
    result = json.loads(last)
    ok = p.returncode == 0 and result.get("correct") is True
    print(f"{workload:14} seed {seed:3} trace {trace}: exit {p.returncode}, "
          f"correct {result.get('correct')}, {wall:.1f} s", flush=True)
    if not ok:
        sys.stderr.write(p.stderr[-2000:])
    return ok


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def summary(bench, since):
    lines = RESULTS.read_text().splitlines()[since:] if RESULTS.exists() else []
    records = [json.loads(line) for line in lines]
    records = [r for r in records if r.get("seconds") == bench["run_seconds"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in bench["workloads"]:
        name = w["name"]
        plain = [r for r in records if r["workload"] == name and not r["trace"]]
        traced = [r for r in records if r["workload"] == name and r["trace"]]
        if not plain:
            continue
        print(f"\n{name}: {len(plain)} untraced, {len(traced)} traced runs; "
              f"host {plain[-1]['host']}")
        print(f"  {'metric':22} {'median':>14} {'spread':>8} {'bound':>6} "
              f"{'traced':>14} {'overhead':>10}")
        for metric in bounds:
            vals = [r["end_to_end"][metric]["value"] for r in plain]
            med = statistics.median(vals)
            tvals = [r["end_to_end"][metric]["value"] for r in traced]
            tmed = statistics.median(tvals) if tvals else float("nan")
            sp = spread(vals)
            flag = "" if sp <= bounds[metric] / 3 else "  <-- above a third of the bound"
            print(f"  {metric:22} {med:14.6g} {sp:8.3f} {bounds[metric]:6.2f} "
                  f"{tmed:14.6g} {tmed - med:10.4g}{flag}")
        props = sorted({k for r in plain for k in r["properties"]})
        for k in props:
            vals = [r["properties"][k] for r in plain if k in r["properties"]]
            print(f"  property {k:30} median {statistics.median(vals):.6g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", help="0, 1 or 0,1")
    ap.add_argument("--summary-only", action="store_true")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    since = len(RESULTS.read_text().splitlines()) if RESULTS.exists() else 0
    failures = 0
    if not args.summary_only:
        names = args.workloads.split(",") if args.workloads else [
            w["name"] for w in bench["workloads"]]
        for name in names:
            for seed in seeds(args.seeds):
                for trace in args.trace.split(","):
                    failures += not run(bench, name, seed, int(trace))
    else:
        since = 0
    summary(bench, since)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
