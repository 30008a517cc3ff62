"""Run every workload on seeds 1-10 and record medians, quartiles and spreads.

    python3 bench/baseline.py

Run from the repository root. It loops seed by seed, and for each seed runs
``bench/run.py --trace 0`` on every workload, so a slow stretch of a shared
machine falls on all workloads alike rather than on one workload's block of
seeds. Each run measures for BENCHMARK.json's ``run_seconds``. Then it runs
each workload once with ``--trace 1`` at the first seed. It writes
``bench/results/baseline.json`` with each end-to-end metric's median,
quartiles and spread ((q3 - q1) / median, from
``statistics.quantiles(values, n=4)``), the traced metrics and the provenance
of the runs. It exits 1 if any run failed its check.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SEEDS = tuple(range(1, 11))
OUT = BENCH_DIR / "results" / "baseline.json"


def run_once(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no output (exit {out.returncode}): {out.stderr}")
    record = json.loads(lines[-1])
    prov = next(json.loads(line[len("provenance "):]) for line in lines
                if line.startswith("provenance "))
    return {**record, "provenance": prov}


def main() -> int:
    names = list(workloads.WORKLOADS)
    runs = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            runs[name].append(run_once(name, seed, 0))
        print(f"seed {seed} done", flush=True)
    doc = {"seeds": list(SEEDS), "run_seconds": workloads.run_seconds(), "workloads": {}}
    all_correct = True
    for name in names:
        traced = run_once(name, SEEDS[0], 1)
        all_correct &= all(r["correct"] for r in runs[name] + [traced])
        summary = {}
        for metric in workloads.END_TO_END_UNITS:
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[metric] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median, "values": values,
                               "unit": workloads.END_TO_END_UNITS[metric]}
        doc["workloads"][name] = {
            "end_to_end": summary,
            "runs_attempted": sum(r["attempted"] for r in runs[name]),
            "runs_failed": sum(r["failed"] for r in runs[name]),
            "traced": {k: v["value"] for k, v in traced["metrics"].items()},
            "provenance": runs[name][0]["provenance"],
        }
        print(name, {m: round(s["spread"], 3) for m, s in summary.items()}, flush=True)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
