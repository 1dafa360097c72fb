#!/usr/bin/env python3
"""Repeat the benchmark over seeds, judge its spread, and record a point.

    python3 bench/trajectory.py
    python3 bench/trajectory.py --first-seed 11 --trace --record "label"

For each workload it runs `bench/run.py --trace 0` for 10 seeds, each
run as long as BENCHMARK.json's `run_seconds`, and reports, per
end-to-end metric, the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median,
marking each spread against a third of the metric's bound in
BENCHMARK.json. The quartiles use the default (exclusive) method, the
one the benchmark's steadiness rule is stated with; run.py's per-call
percentiles interpolate inclusively instead, so that a p99 never lies
beyond the slowest call. `--trace` adds one traced run per workload.
`--record` appends the result, with host and commit, to
bench/trajectory.json: one point per measured commit, oldest first.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

import run

TRAJECTORY = run.BENCH_DIR / "trajectory.json"
RUNS = 10


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(cmd)}: incorrect result {result}")
    return result


def spread_table(runs, spec):
    table = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        table[name] = {
            "unit": metric["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "bound": metric["bound"],
            "values": values,
        }
    return table


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--record", metavar="LABEL", help="append the result to trajectory.json")
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    cbe = run.load_cbe()
    point = {
        "label": args.record,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": run.provenance(cbe),
        "run_seconds": seconds,
        "seeds": list(range(args.first_seed, args.first_seed + RUNS)),
        "workloads": {},
    }
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        started = time.perf_counter()
        runs = [bench(workload, seed, seconds, False) for seed in point["seeds"]]
        table = spread_table(runs, spec)
        entry = {"params": run.WORKLOADS[workload].params, "end_to_end": table,
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs)}
        print(f"== {workload}: {RUNS} runs in {time.perf_counter() - started:.0f} s, "
              f"{entry['failed']} of {entry['attempted']} operations failed")
        for name, row in table.items():
            ok = row["spread"] < row["bound"] / 3
            steady &= ok
            print(f"   {name:<18} median {row['median']:.6g} {row['unit']:<6} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.4f} "
                  f"(bound {row['bound']}){'' if ok else '  NOT STEADY'}")
        if args.trace:
            traced = bench(workload, point["seeds"][0], seconds, True)
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
            entry["per_layer_seed"] = point["seeds"][0]
        point["workloads"][workload] = entry
    print("steady" if steady else "NOT steady")
    if args.record:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
        print(f"recorded in {TRAJECTORY.relative_to(run.ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
