"""Run the benchmark over several seeds and summarize it as a BENCH_*.json.

    python3 bench/baseline.py --seeds 0-9 --trace-seeds 0-2 --out bench/baselines/BENCH_<tag>.json

Each run is the command in BENCHMARK.json with its run_seconds, exactly as
a single benchmark run.  For every workload and metric the summary gives
the values by seed, their median, quartiles (statistics.quantiles, n=4)
and spread (interquartile range over median), so a later change can cite
before and after numbers measured the same way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def summarize(results: list[dict], seeds: list[int], runs: list[int]) -> dict:
    out = {
        "seeds": seeds,
        "iterations_per_seed": runs,
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        entry = {"unit": first["unit"], "median": med, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
        out["metrics"][name] = entry
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    ap.add_argument("--trace-seeds", type=seed_range, default=[])
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    doc = {"env": None, "run_seconds": spec["run_seconds"], "end_to_end": {}, "per_layer": {}}
    for trace, seeds, key in ((0, args.seeds, "end_to_end"), (1, args.trace_seeds, "per_layer")):
        for w in names:
            if not seeds:
                continue
            results, runs = [], []
            for seed in seeds:
                env, result = one_run(spec, w, seed, trace)
                doc["env"] = doc["env"] or {
                    k: v for k, v in env.items() if k not in ("seed", "workload", "trace", "runs")
                }
                results.append(result)
                runs.append(env["runs"])
                print(f"{key} {w} seed {seed}: " + json.dumps(
                    {n: round(m["value"], 6) for n, m in list(result["metrics"].items())[:7]}), flush=True)
            doc[key][w] = summarize(results, seeds, runs)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for w, s in doc["end_to_end"].items():
        for name, m in s["metrics"].items():
            print(f"{w:16s} {name:12s} median {m['median']:.6g} {m['unit']:6s} spread {m.get('spread', 0):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
