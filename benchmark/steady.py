#!/usr/bin/env python3
"""Steadiness tool for the repository benchmark.

Run from the repository root.

    python3 benchmark/steady.py run --seeds 1-10 --out A.jsonl
        Runs every workload once per seed through benchmark/run.py,
        alternating the workload order from one seed to the next, saves
        one JSON line per run and prints each end-to-end metric's median,
        quartiles and spread (quartile distance over median) against the
        bound in BENCHMARK.json.

    python3 benchmark/steady.py compare A.jsonl B.jsonl
        Compares two sets of runs: per workload and metric, the change of
        the median against the bound.  Fails (exit 1) if any run was not
        correct, or if an exact metric or a hash differs for the same
        workload and seed.

Options of `run`: --workloads a,b (default: all), --seconds S (default:
run_seconds from BENCHMARK.json), --trace 0|1.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Metrics that are a pure function of the seed: any difference between
# two runs of one seed is a bug, not noise.
EXACT = ("alloc_words_per_op", "success_frac", "reneg_fail_frac", "call_block_frac")


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        ["python3", "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"steady.py: {workload} seed {seed} exited {proc.returncode}")
    fingerprint = {}
    for line in lines:
        if line.startswith("fingerprint "):
            key, value = line[len("fingerprint "):].split(" = ")
            fingerprint[key] = int(value)
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": trace,
            "fingerprint": fingerprint, "result": result}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    by_workload = {}
    for r in records:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, runs in by_workload.items():
        print(f"{workload}  ({len(runs)} runs)")
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            line = f"  {name:20s} median {q2:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:.4f}"
            bound = bounds.get(name, {}).get("bound")
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
                line += f"  bound {bound} {verdict}"
            print(line)


def cmd_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    records = []
    with open(args.out, "w") as out:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = workloads if i % 2 == 0 else list(reversed(workloads))
            for w in order:
                r = run_once(w, seed, seconds, args.trace)
                records.append(r)
                out.write(json.dumps(r) + "\n")
                out.flush()
                print(f"seed {seed} {w}: correct={r['result']['correct']}", flush=True)
    summarize(records, spec)
    return 0 if all(r["result"]["correct"] for r in records) else 1


def read(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def cmd_compare(args):
    spec = load_spec()
    a, b = read(args.a), read(args.b)
    ok = all(r["result"]["correct"] for r in a + b)
    if not ok:
        print("FAIL: a run was not correct")
    index = {(r["workload"], r["seed"]): r for r in a}
    for r in b:
        other = index.get((r["workload"], r["seed"]))
        if other is None:
            continue
        for name in EXACT:
            va = other["result"]["metrics"][name]["value"]
            vb = r["result"]["metrics"][name]["value"]
            if va != vb:
                ok = False
                print(f"FAIL: {r['workload']} seed {r['seed']} {name}: {va} vs {vb}")
        if other["fingerprint"] != r["fingerprint"]:
            ok = False
            print(f"FAIL: {r['workload']} seed {r['seed']} hashes differ: "
                  f"{other['fingerprint']} vs {r['fingerprint']}")
    for m in spec["end_to_end"]:
        for workload in sorted({r["workload"] for r in a}):
            va = [r["result"]["metrics"][m["name"]]["value"] for r in a if r["workload"] == workload]
            vb = [r["result"]["metrics"][m["name"]]["value"] for r in b if r["workload"] == workload]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            print(f"{workload:20s} {m['name']:20s} {ma:<14.6g} -> {mb:<14.6g} "
                  f"{change:+.4f} (bound {m['bound']}) {verdict}")
    print("identical exact metrics and hashes" if ok else "exact metrics or hashes differ")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads")
    r.add_argument("--seconds", type=int)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
