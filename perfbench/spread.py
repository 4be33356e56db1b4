#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workloads radio-5k,record-replay --seeds 1-10 \
        --trace 0 --out .bench_build/spread.json

Each (workload, seed) pair is one run of the command in BENCHMARK.json. For
every metric the summary gives the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread: (q3 - q1) / median.
End-to-end spreads are compared with a third of the metric's bound in
BENCHMARK.json, the level a steady benchmark stays under. The JSON written
to --out holds every run's stamp and result plus the summary and the wall
time of the whole pass.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    stamp, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed, "wall_s": wall, "steal_share": stamp["run"]["steal_share"],
            "host": stamp["host"], "commit": stamp["run"]["commit"],
            "samples": stamp["samples"], "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "units": {k: m["unit"] for k, m in result["metrics"].items()}}


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", default="1-10", help="seed range lo-hi")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--md", help="also write the summary as a Markdown table here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"trace": args.trace, "run_seconds": bench["run_seconds"], "workloads": {}}
    t0 = time.monotonic()
    for workload in args.workloads.split(","):
        runs = [run_once(bench, workload, s, args.trace) for s in seeds_of(args.seeds)]
        values = {}
        for r in runs:
            if not r["correct"] or r["failed"]:
                sys.exit(f"{workload} seed {r['seed']}: incorrect result {r}")
            for name, v in r["metrics"].items():
                values.setdefault(name, []).append(v)
        summary = {name: dict(summarize(v), unit=runs[0]["units"][name]) for name, v in values.items()}
        for r in runs:
            del r["units"]
        report["host"] = runs[0]["host"]
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        print(f"{workload}: {len(runs)} runs, {sum(r['wall_s'] for r in runs):.0f} s", flush=True)
        for name, s in sorted(summary.items()):
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] > bound / 3:
                flag = f"  ABOVE bound/3 ({bound / 3:.3f})"
            print(f"  {name:40s} median {s['median']:14.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}"
                  f"  spread {s['spread']:.3f}{flag}")
    report["pass_wall_s"] = time.monotonic() - t0
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"pass wall time {report['pass_wall_s']:.0f} s")
    if args.md:
        with open(args.md, "w") as f:
            f.write(markdown(report, bounds))


def markdown(report, bounds):
    host = report["host"]
    out = [f"Host: {host['cores']} cores, GOMAXPROCS {host['gomaxprocs']}, {host['cpu']}, "
           f"{host['go']}, {host['os_arch']}. `--trace {report['trace']}`, "
           f"{report['run_seconds']} s per run. The pass took {report['pass_wall_s']:.0f} s.", ""]
    for workload, d in report["workloads"].items():
        runs = d["runs"]
        walls = sorted(r["wall_s"] for r in runs)
        steal = sorted(r["steal_share"] for r in runs)
        out += [f"### {workload}", "",
                f"{len(runs)} runs, seeds {runs[0]['seed']}..{runs[-1]['seed']}, commit {runs[0]['commit']}. "
                f"Wall per run: median {statistics.median(walls):.1f} s. "
                f"Host steal share per run: {steal[0]:.3f} to {steal[-1]:.3f}.", "",
                "| metric | unit | median | q1 | q3 | spread | bound |", "|---|---|---|---|---|---|---|"]
        for name, s in sorted(d["summary"].items()):
            bound = bounds.get(name)
            out.append(f"| `{name}` | {s['unit']} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} | "
                       f"{s['spread']:.3f} | {'' if bound is None else bound} |")
        out.append("")
    return "\n".join(out)


if __name__ == "__main__":
    main()
