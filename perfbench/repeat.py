"""Repeat the benchmark over seeds and summarise: python3 perfbench/repeat.py [--out FILE]

Runs `run.py` for each workload of BENCHMARK.json with seeds 1 .. 10 at
`run_seconds`, then one traced run with seed 1.
For every end-to-end metric it reports the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median.
Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0])["info"]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": seconds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        values, uncorrected, probes, failures = {}, {}, {}, []
        for seed in SEEDS:
            result, info = run_once(workload, seed, seconds, 0)
            summary["machine"] = info["machine"]
            if not result["correct"]:
                failures.append({"seed": seed, "errors": info["errors"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in info["uncorrected"].items():
                uncorrected.setdefault(name, []).append(value)
            for name, value in info["probe_median_s"].items():
                probes.setdefault(name, []).append(value)
        stats = {name: summarise(v) for name, v in values.items()}
        traced, traced_info = run_once(workload, SEEDS[0], seconds, 1)
        summary["workloads"][workload] = {
            "end_to_end": stats,
            "uncorrected": {name: summarise(v) for name, v in uncorrected.items()},
            "probe_median_s": {name: summarise(v) for name, v in probes.items()},
            "failures": failures,
            "traced": {name: m["value"] for name, m in traced["metrics"].items()},
            "traced_counts_by_call": traced_info["counts_by_call"],
        }
        for name, s in stats.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  (above a third of the bound)"
            print(f"{workload:10s} {name:12s} median {s['median']:12.4f}  spread {s['spread']:.4f}"
                  f"  bound {bounds[name]}{flag}", flush=True)
        print(f"{workload:10s} failures: {len(failures)} of {len(SEEDS)}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
