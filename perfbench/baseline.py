"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1]
        [--workload lift --workload ...] [--write]

Runs `run.py --trace 0` once per seed and workload, one after another,
then one `--trace 1` run per workload.  For each end-to-end metric it
prints the median, the quartiles (`statistics.quantiles(n=4)`) and the
spread, (q3 - q1) / median, next to a third of the metric's bound from
BENCHMARK.json.  With `--write` the summary is stored as
perfbench/baseline/<workload>.json together with the Python version,
`nproc`, the git revision of the measured tree, and the first seed's
scene sha256 and pair-kind counts per operation.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None):
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    for workload in args.workload or names:
        runs = [run_once(workload, s, spec["run_seconds"], 0) for s in seeds]
        summary = {}
        for name in bounds:
            summary[name] = summarise([r["metrics"][name]["value"] for r in runs])
            s = summary[name]
            print(f"{workload:8s} {name:12s} median {s['median']:10.4f} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['spread']:.4f} "
                  f"(a third of the bound: {bounds[name] / 3:.4f})", flush=True)
        print(f"{workload:8s} correct {all(r['correct'] for r in runs)} "
              f"failed {sum(r['failed'] for r in runs)} "
              f"attempted {sum(r['attempted'] for r in runs)}", flush=True)
        if not args.write:
            continue
        traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
        with open(os.path.join(HERE, "results",
                               f"{workload}-seed{seeds[0]}-trace1.json")) as fh:
            details = json.load(fh)
        doc = {"workload": workload, "seeds": seeds,
               "run_seconds": spec["run_seconds"],
               "python": platform.python_version(), "nproc": os.cpu_count(),
               "git_rev": git_rev(),
               "correct": all(r["correct"] for r in runs),
               "attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs),
               "end_to_end": summary,
               "per_layer_seed": seeds[0],
               "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
               "ops": details["ops"],
               "known_defects": details["known_defects"]}
        os.makedirs(os.path.join(HERE, "baseline"), exist_ok=True)
        with open(os.path.join(HERE, "baseline", f"{workload}.json"), "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
