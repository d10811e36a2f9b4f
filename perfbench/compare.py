#!/usr/bin/env python3
"""Collect and compare benchmark runs.

  python3 perfbench/compare.py collect OUT.jsonl --workload W --seeds 1-10 [--seconds S] [--trace 0|1]
      Runs the benchmark once per seed and appends each run's result line,
      tagged with its workload and seed, to OUT.jsonl.

  python3 perfbench/compare.py spread RUNS.jsonl
      Per workload and end-to-end metric: median, quartiles, and the spread
      (third minus first quartile, as a share of the median) against the
      metric's bound in BENCHMARK.json, plus the share of failed sweeps.

  python3 perfbench/compare.py compare BASE.jsonl NEW.jsonl
      Per workload and metric: each side's median and quartiles, the pairs
      NEW won (runs paired by seed; ties count for neither), and a verdict:
      "unresolved" when either side's spread exceeds the metric's bound,
      else "better" when NEW won at least 9/10 of the pairs and the medians
      differ by more than BASE's own quartile distance, "worse" when NEW's
      median is worse than BASE's by more than the bound, else "same".

Run from the root of the repository.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))


def metric_specs():
    specs = {m["name"]: m for m in BENCH["end_to_end"]}
    for m in BENCH["per_layer"]:
        specs.setdefault(m["name"], m)
    return specs


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def collect(args):
    for seed in seeds(args.seeds):
        cmd = BENCH["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(args.seconds or BENCH["run_seconds"]),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"{args.workload} seed {seed}: exit {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res.update(workload=args.workload, seed=seed)
        with open(args.out, "a") as f:
            f.write(json.dumps(res) + "\n")
        print(args.workload, seed, json.dumps({k: round(v["value"], 4) for k, v in res["metrics"].items()}), flush=True)


def load(path):
    runs = {}
    for line in open(path):
        if line.strip():
            r = json.loads(line)
            runs.setdefault(r["workload"], []).append(r)
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def spread(args):
    specs = metric_specs()
    for wl, runs in sorted(load(args.runs).items()):
        failed = {(r["failed"], r["attempted"]) for r in runs}
        share = {f / a for f, a in failed}
        print(f"{wl}: {len(runs)} runs, failed share {sorted(share)}, all correct: {all(r['correct'] for r in runs)}")
        for name in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in runs]
            if len(vals) < 2:
                continue
            q1, q2, q3, sp = summary(vals)
            bound = specs.get(name, {}).get("bound")
            flag = "" if bound is None else ("ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "OVER BOUND"))
            print(f"  {name:32s} median {q2:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {sp:7.4f}  bound {bound}  {flag}")


def compare(args):
    specs = metric_specs()
    base, new = load(args.base), load(args.new)
    for wl in sorted(set(base) & set(new)):
        b_by_seed = {r["seed"]: r for r in base[wl]}
        print(wl)
        for name in sorted(base[wl][0]["metrics"]):
            spec = specs.get(name, {})
            lower = spec.get("better", "lower") == "lower"
            bound = spec.get("bound")
            bv = [r["metrics"][name]["value"] for r in base[wl]]
            nv = [r["metrics"][name]["value"] for r in new[wl] if name in r["metrics"]]
            if len(bv) < 2 or len(nv) < 2:
                continue
            bq1, bq2, bq3, bsp = summary(bv)
            nq1, nq2, nq3, nsp = summary(nv)
            won = pairs = 0
            for r in new[wl]:
                b = b_by_seed.get(r["seed"])
                if b is None:
                    continue
                pairs += 1
                x, y = b["metrics"][name]["value"], r["metrics"][name]["value"]
                if (y < x) if lower else (y > x):
                    won += 1
            worse = (nq2 - bq2) / bq2 if lower else (bq2 - nq2) / bq2
            if bound is not None and max(bsp, nsp) > bound:
                verdict = "unresolved"
            elif pairs and won >= 0.9 * pairs and abs(nq2 - bq2) > (bq3 - bq1):
                verdict = "better"
            elif bound is not None and worse > bound:
                verdict = "worse"
            else:
                verdict = "same"
            print(f"  {name:32s} base {bq2:12.4f} [{bq1:.4f}, {bq3:.4f}]  new {nq2:12.4f} [{nq1:.4f}, {nq3:.4f}]  won {won}/{pairs}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int)
    c.add_argument("--trace", type=int, default=0)
    s = sub.add_parser("spread")
    s.add_argument("runs")
    m = sub.add_parser("compare")
    m.add_argument("base")
    m.add_argument("new")
    args = ap.parse_args()
    {"collect": collect, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
