"""Same-commit null comparison: run-to-run spread of every metric.

Runs ``run.py`` once per seed (each in its own process, one after the
other) and prints, per end-to-end metric, the median, the quartiles and
the spread ``(q3 - q1) / median`` next to the metric's bound from
``BENCHMARK.json``::

    python3 perfbench/spread.py --workload fleet-ingest --runs 10

A metric is steady when its spread stays below a third of its bound
(``setup_s`` is exempt from the spread rule).  With ``--batches 2`` the
seeds are run twice and the second batch's median is compared with the
first's, as a regression check between two runs of the same code would.
Results are also written to ``perfbench/_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"run failed (seed {seed}):\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--batches", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    seeds = range(1, args.runs + 1)
    batches = []
    for batch in range(args.batches):
        runs = []
        for seed in seeds:
            runs.append(one_run(args.workload, seed, spec["run_seconds"]))
            print(f"batch {batch} seed {seed}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()),
                  flush=True)
        batches.append(runs)
    report = {}
    steady = True
    for name, (bound, better) in bounds.items():
        row = {}
        for batch, runs in enumerate(batches):
            values = [run[name] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            row[f"batch{batch}"] = {
                "values": values, "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median,
            }
        first = row["batch0"]
        ok = name == "setup_s" or first["spread"] < bound / 3
        line = (f"{name:<16} median {first['median']:>12.5g}  "
                f"q1 {first['q1']:>12.5g}  q3 {first['q3']:>12.5g}  "
                f"spread {first['spread']:7.2%}  bound {bound:.0%}")
        if len(batches) > 1:
            second = row["batch1"]["median"]
            change = (second - first["median"]) / first["median"]
            worse = change if better == "lower" else -change
            ok = ok and worse <= bound
            row["second_vs_first"] = change
            line += f"  batch1 median {change:+.2%}"
        steady = steady and ok
        print(line + ("" if ok else "  <-- not steady"))
        report[name] = row
    out = HERE / "_out" / f"spread-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
