"""Run each workload several times, one fresh process and seed per run, and
report every metric's median and quartiles.

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --runs 5 --workload fuzz-general --first-seed 101
    python3 perfbench/spread.py --runs 3 --trace 1

Every run lasts BENCHMARK.json's run_seconds.  Runs are sequential, so only
one process loads the machine.  The spread of a
metric is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; it is printed next to the metric's
bound from BENCHMARK.json.  With --trace 1 the per-layer metrics are
summarised instead, together with the traced ops/s from each run's trace
file (compare it with an untraced run's ops_per_s for the tracing overhead).
A summary is written to perfbench/out/spread-<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [*CONFIG["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(CONFIG["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        out = ROOT / "perfbench" / "out" / f"trace-{workload}-{seed}.json"
        result["ops_per_s_traced"] = json.loads(out.read_text())["ops_per_s_traced"]
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in CONFIG["workloads"]])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    bounds = {m["name"]: m.get("bound") for m in CONFIG["end_to_end"]}
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workload or [w["name"] for w in CONFIG["workloads"]]:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            results.append(run_once(workload, seed, args.trace))
            print(f"{workload} seed={seed}: {json.dumps(results[-1])}", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        names = list(results[0]["metrics"])
        if args.trace:
            names.append("ops_per_s_traced")
        summary = {"workload": workload, "runs": args.runs, "seconds": CONFIG["run_seconds"],
                   "first_seed": args.first_seed, "trace": args.trace,
                   "correct": all(r["correct"] for r in results),
                   "failed_shares": sorted(shares), "metrics": {}}
        attempted = [r["attempted"] for r in results]
        failed = [r["failed"] for r in results]
        print(f"\n{workload}: {args.runs} runs, correct={summary['correct']}, "
              f"attempted {min(attempted)}..{max(attempted)}, failed {min(failed)}.."
              f"{max(failed)}, failed/attempted={sorted(shares)}")
        print(f"  {'metric':38} {'unit':>8} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in names:
            if name == "ops_per_s_traced":
                values, unit = [r[name] for r in results], "ops/s"
            else:
                values = [r["metrics"][name]["value"] for r in results]
                unit = results[0]["metrics"][name]["unit"]
            s = summarise(values)
            summary["metrics"][name] = dict(s, unit=unit)
            bound = bounds.get(name)
            print(f"  {name:38} {unit:>8} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:8.4f} {'' if bound is None else bound:>6}")
        path = out_dir / f"spread-{workload}-trace{args.trace}.json"
        path.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
