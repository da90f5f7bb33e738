#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's median and
spread (interquartile range over median, as statistics.quantiles gives the
quartiles), the check BENCHMARK.json's bounds are held to.

    python3 perfbench/spread.py --workload fig5 --seeds 1-10 [--repeat 1] [--trace 0] [--verbose]

Run it from the root of the repository; it calls perfbench/run.sh.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--repeat", type=int, default=1, help="runs per seed")
    ap.add_argument("--verbose", action="store_true", help="also print every value")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for s in [s for s in seeds(args.seeds) for _ in range(args.repeat)]:
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(s),
             "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {s}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
            continue
        res = json.loads(lines[-1])
        print(f"seed {s}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        spread = float("nan")
        if len(xs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
        print(f"{name:40s} median {med:14.4f}  spread {spread:7.3f}  bound {bound}{flag}")
        if args.verbose:
            print("    " + " ".join(f"{x:.4g}" for x in xs))


if __name__ == "__main__":
    main()
