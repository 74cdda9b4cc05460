#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 benchmark/spread.py [--workload NAME ...] [--seeds 10] [--first-seed 1]
                                [--trace 0|1] [--record FILE]

Run it from the repository root. For every workload it runs the command in
BENCHMARK.json once per seed and prints, per metric, the median, the first
and third quartile (statistics.quantiles(values, n=4)) and the spread: the
distance between the quartiles as a share of the median. A spread at or
below a third of the metric's bound is marked steady. Each run's share of
CPU time stolen by the hypervisor is printed, since a shared host's load
moves every timing. --record writes the medians, quartiles and values, with
the environment line of the first run and the steal shares, as a
trajectory point.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def cpu_ticks():
    """Returns the machine's (steal, total) CPU ticks from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    steal0, total0 = cpu_ticks()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    steal1, total1 = cpu_ticks()
    took = time.time() - start
    steal = (steal1 - steal0) / max(1, total1 - total0)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    return json.loads(lines[-1]), env, took, steal


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--record")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    defs = bench["end_to_end"] if opts.trace == 0 else bench["per_layer"]
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    record = {"environment": None, "seeds": [], "workloads": {}}
    steady = True
    for wl in workloads:
        values = {d["name"]: [] for d in defs}
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            res, env, took, steal = run_once(bench["command"], wl, seed, bench["run_seconds"], opts.trace)
            record["environment"] = record["environment"] or env
            if seed not in record["seeds"]:
                record["seeds"].append(seed)
            if not res["correct"] or res["failed"]:
                steady = False
                print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}")
            for d in defs:
                values[d["name"]].append(res["metrics"][d["name"]]["value"])
            record.setdefault("steal", {}).setdefault(wl, []).append(round(steal, 4))
            print(f"{wl} seed {seed}: {took:.1f}s, CPU steal {100 * steal:.1f}%", flush=True)
        rows = {}
        for d in defs:
            vs = values[d["name"]]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else float("inf")
            bound = d.get("bound")
            ok = bound is None or spread <= bound / 3
            if bound is not None and d["name"] != "setup_s":
                steady = steady and ok
            rows[d["name"]] = {"unit": d["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "values": vs}
            flag = "" if bound is None else ("steady" if ok else f"UNSTEADY (bound {bound})")
            print(f"{wl:18s} {d['name']:30s} median {med:14.4f} {d['unit']:6s} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:6.3f} {flag}", flush=True)
            print(" " * 19 + "values " + " ".join(f"{v:.4g}" for v in vs), flush=True)
        record["workloads"][wl] = rows
    if opts.record:
        with open(opts.record, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
