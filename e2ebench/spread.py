#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's spread.

Run from the root of the repository:

    python3 e2ebench/spread.py --workload replay --seeds 1-10 --sets 2

Each set runs the workload once per seed. For every metric the helper
prints, per set, the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
distance between the quartiles as a share of the median; with two sets it
also prints how far the second median moved from the first. It checks
that the share of failed operations is the same in every run, and prints
the bound each end-to-end metric has in BENCHMARK.json next to its spread.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(args, seed):
    cmd = ["bash", "e2ebench/run.sh", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    sets = []
    shares = set()
    ok = True
    for s in range(args.sets):
        values = {}
        for seed in parse_seeds(args.seeds):
            info, res = run_once(args, seed)
            ok = ok and res["correct"]
            shares.add((res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            figures = " ".join(f"{k}={m['value']:.5g}" for k, m in sorted(res["metrics"].items()))
            print(f"set {s + 1} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} cpu={info['cpu']!r} go={info['go']} {figures}", file=sys.stderr)
        sets.append(values)

    print(f"workload {args.workload}, seeds {args.seeds}, {args.seconds} s, trace {args.trace}")
    print(f"{'metric':36} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in sorted(sets[0]):
        for i, values in enumerate(sets):
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"{name:36} {i + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}")
        if len(sets) == 2:
            m1 = statistics.median(sets[0][name])
            m2 = statistics.median(sets[1][name])
            print(f"{'':36} second median moved {((m2 - m1) / m1 if m1 else 0.0):+.4f}")
    fail_shares = {f / a for f, a in shares}
    print(f"correct in every run: {ok}; failed shares seen: {sorted(fail_shares)}")
    return 0 if ok and len(fail_shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
