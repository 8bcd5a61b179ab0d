"""Run-to-run spread of the benchmark, and the baseline record.

    python3 perfbench/spread.py --runs 10 [--workloads a,b] [--first-seed 1] [--out FILE]
    python3 perfbench/spread.py --compare FIRST.json SECOND.json [--out FILE]

Runs `run.py --trace 0` once per seed (seeds first-seed .. first-seed +
runs - 1) on every workload, interleaving workloads so that slow drift in
machine speed hits them alike, then one `--trace 1` run per workload.
For each end-to-end metric it prints the median and the quartile spread,
(Q3 - Q1) / median as `statistics.quantiles(values, n=4)` gives the
quartiles, next to the metric's bound from BENCHMARK.json.  With --out it
writes every run's metrics, the spreads, each workload's traced layer
breakdown and the run metadata to FILE as JSON.

--compare reads two such files (say, parent and change, or two sets of
runs of the same code) and prints each metric's median change against
its bound; with --out it writes both sets and the changes to FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def invoke(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.WORK, workload, "result.json")) as f:
        record = json.load(f)
    return result, record


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def compare(first_path, second_path, bounds, better, out):
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    changes = {}
    ok = True
    for name, stats in second["workloads"].items():
        for metric, bound in bounds.items():
            old = first["workloads"][name]["spread"][metric]["median"]
            new = stats["spread"][metric]["median"]
            worse = (new - old) / old if better[metric] == "lower" else (old - new) / old
            changes.setdefault(name, {})[metric] = worse
            verdict = "within bound" if worse <= bound else "WORSE THAN BOUND"
            ok = ok and worse <= bound
            print(f"{name:16} {metric:14} {old:.5g} -> {new:.5g}  worse by {worse:+.4f}  bound {bound}  {verdict}")
    if out:
        with open(out, "w") as f:
            json.dump({"first": first, "second": second, "second_worse_by": changes}, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.compare:
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        return compare(*args.compare, bounds, better, args.out)
    runs = {n: [] for n in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:
            result, record = invoke(name, seed, args.seconds, 0)
            runs[name].append({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                               "extra": record["detail"]["extra"],
                               "passes": len(record["detail"]["pass_op_walls"]),
                               "loadavg": [record["meta"]["loadavg_start"], record["meta"]["loadavg_end"]]})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in {**runs[name][-1]["metrics"], **runs[name][-1]["extra"]}.items()),
                flush=True)
    report = {"run_seconds": args.seconds, "workloads": {}}
    ok = True
    for name in names:
        stats = {}
        for metric, bound in bounds.items():
            stats[metric] = spread([r["metrics"][metric] for r in runs[name]])
            stats[metric]["bound"] = bound
            line = (f"{name:16} {metric:14} median {stats[metric]['median']:.5g}  "
                    f"spread {stats[metric]['spread']:.4f}  bound {bound}")
            if stats[metric]["spread"] > bound:
                ok = False
                line += "  OVER BOUND"
            elif stats[metric]["spread"] > bound / 3:
                line += "  above a third of the bound"
            print(line)
        _, traced = invoke(name, args.first_seed, args.seconds, 1)
        report["workloads"][name] = {
            "runs": runs[name],
            "spread": stats,
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs[name]),
            "traced": {
                "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
                "breakdown": traced["detail"]["breakdown"],
                "predictions": traced["detail"]["predictions"],
                "absent": traced["detail"]["absent"],
                "meta": traced["meta"],
            },
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
