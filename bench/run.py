"""spectop benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Set-up (a fresh interpreter importing
spectop and building the inputs) is timed SETUP_RUNS times on its own.
Then fresh worker interpreters run one iteration each, as many as fill
--seconds on the reference host.  With --trace 1, untraced and traced iterations of the same
input alternate, and the traced ones report per-layer calls and self
time.  Every time is given in reference seconds (see hostspeed.py), and
every answer is checked.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it records
the environment, and the full record goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import queries  # noqa: E402
from tracer import LAYERS, TRACED  # noqa: E402

WORKLOAD_NAMES = ("axes-supplement", "suites-symbolic", "query-mix")
# Wall seconds of one worker iteration, interpreter start included, on the
# reference host (see hostspeed.py).  --seconds becomes a fixed iteration
# count with them, so a run's work does not depend on the host's speed.
ITERATION_S = {"axes-supplement": 6.3, "suites-symbolic": 2.8, "query-mix": 0.8}
SETUP_RUNS = 5
MIN_ITERATIONS = 3  # untraced; with --trace 1, MIN_PAIRS pairs
MIN_PAIRS = 2
ITERATION_BUDGET_S = 150  # keeps a run under the 180 s limit whatever --seconds says

END_TO_END = (
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Suite timings in the order of the ROADMAP baseline.  axes-supplement
# runs the supplement suite's work; suites-symbolic runs the others.
SUITE_ORDER = (
    "supplement", "closure-axioms", "density", "nilradical-product",
    "oracle-agreement", "pz", "lying-over", "finite-closure", "remark-v5", "remark-flat",
)

# name, numerator function, base: (function, "calls" or "items") terms.
RATIOS = (
    ("spectrum.validate_point.per_compare", "spectrum.validate_point",
     (("spectrum.leq_specialization", "calls"), ("spectrum.point_contains", "calls"))),
    ("gfpoly.is_irreducible.per_sample_point", "gfpoly.is_irreducible",
     (("spectrum.sample_points", "items"),)),
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for qual in TRACED:
        units[f"{qual}.calls"] = "count"
        units[f"{qual}.self_s"] = "s"
    for mod in LAYERS:
        units[f"{mod}.self_s"] = "s"
    for suite in SUITE_ORDER:
        units[f"suites.{suite}.s"] = "s"
    for name, _, _ in RATIOS:
        units[name] = "ratio"
        units[f"{name}.base"] = "count"
    units["trace_overhead_frac"] = "ratio"
    units["trace.untraced_wall_s"] = "s"
    units["trace.traced_wall_s"] = "s"
    return units


class BenchError(Exception):
    pass


def worker(mode: str, args, iteration: int, index: int, deadline: float) -> tuple[float, dict]:
    """Run one worker interpreter; return its wall time and its result.

    The index-th worker of a kind gets PYTHONHASHSEED=index: set iteration
    order, and with it the work done, depends on the hash seed, so every
    run covers the same hash seeds instead of random ones.
    """
    timeout = max(5.0, deadline - time.monotonic())
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, args.workload, str(args.seed), str(iteration)]
    cmd += ["tiny"] if args.tiny else []
    env = dict(os.environ, PYTHONHASHSEED=str(index))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {timeout:.0f} s") from exc
    dt = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-3000:]}")
    return dt, json.loads(lines[-1])


def setup_seconds(args, index: int, deadline: float) -> float:
    """Reference seconds of one set-up worker, the host loop timed around it here."""
    before = hostspeed.loop_seconds()
    dt, _ = worker("setup", args, 0, index, deadline)
    return dt * hostspeed.factor(before, hostspeed.loop_seconds())


def cycle(workload: str) -> int:
    """Iterations after which the workload's inputs fail as often at every seed.

    Each query-mix batch draws the next queries of every class from the
    class's seeded stream (queries.batch); whole cycles draw each catalog
    entry that fails at the reference commit equally often.
    """
    if workload != "query-mix":
        return 1
    with open(BENCH / "expected" / "query-mix.json", encoding="utf-8") as fh:
        known = json.load(fh)["known_failures"]
    return queries.whole_draw_batches({qid.split("/")[0] for qid in known})


def iteration_count(workload: str, seconds: float, minimum: int, tiny: bool) -> int:
    """Iterations that fill about `seconds` on the reference host: whole cycles, at least `minimum`.

    The count depends on nothing measured, so every run at a given
    --seconds does the same work and checks as many answers.
    """
    if tiny:
        return minimum
    c = cycle(workload)
    return c * max(-(-minimum // c), round(seconds / (ITERATION_S[workload] * c)))


def repeat(step, count: int) -> list:
    """Call step(i) for i < count; stop early only if the next call would overrun ITERATION_BUDGET_S."""
    out, begin = [], time.monotonic()
    while len(out) < count:
        t0 = time.monotonic()
        out.append(step(len(out)))
        now = time.monotonic()
        if now - begin + (now - t0) > ITERATION_BUDGET_S:
            break
    return out


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def latency_ms(runs: list[dict], q: float) -> float:
    """The q-th request latency of each iteration (nearest rank), median over iterations."""
    return 1000 * statistics.median(nearest_rank([s for _, s in r["ref_latencies"]], q) for r in runs)


def end_to_end(runs: list[dict], setup: list[float]) -> dict:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    values = {
        "wall_s": statistics.median(r["ref_wall_s"] for r in runs),
        "ops_per_s": statistics.median(r["attempted"] / r["ref_wall_s"] for r in runs),
        "op_p50_ms": latency_ms(runs, 0.5),
        "op_p90_ms": latency_ms(runs, 0.9),
        "ok_frac": 1 - failed / attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    units = per_layer_units()
    values: dict[str, float] = {}
    missing = sorted({m for r in traced for m in r["missing"]})
    present = [q for q in TRACED if q not in missing]
    for qual in present:
        values[f"{qual}.calls"] = statistics.median_low(r["trace"][qual]["calls"] for r in traced)
        values[f"{qual}.self_s"] = statistics.median(r["trace"][qual]["self_s"] * r["factor"] for r in traced)
    for mod in LAYERS:
        quals = [q for q in present if q.split(".")[0] == mod]
        if quals:
            values[f"{mod}.self_s"] = statistics.median(
                sum(r["trace"][q]["self_s"] for q in quals) * r["factor"] for r in traced
            )
    for suite in SUITE_ORDER:
        values[f"suites.{suite}.s"] = statistics.median(suite_seconds(r, suite) for r in plain)
    for name, num, terms in RATIOS:
        if num in missing or any(q in missing for q, _ in terms):
            continue
        base = sum(statistics.median_low(r["trace"][q][key] for r in traced) for q, key in terms)
        values[name] = values[f"{num}.calls"] / base if base else 0.0
        values[f"{name}.base"] = base
    untraced = statistics.median(r["ref_wall_s"] for r in plain)
    traced_wall = statistics.median(r["ref_wall_s"] for r in traced)
    values["trace_overhead_frac"] = (traced_wall - untraced) / untraced
    values["trace.untraced_wall_s"] = untraced
    values["trace.traced_wall_s"] = traced_wall
    metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    return metrics, [n for n in units if n not in metrics]


def suite_seconds(run: dict, suite: str) -> float:
    """Seconds one untraced iteration spent in a suite (0 where it does not run)."""
    return sum((s for label, s in run["ref_latencies"] if label == suite), 0.0)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spectop").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, runs: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": runs,
        "setup_runs": SETUP_RUNS,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="fewer operations, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spectop" / "__init__.py").is_file():
        print(f"error: no spectop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    deadline = time.monotonic() + 170

    try:
        setup = [setup_seconds(args, i, deadline) for i in range(SETUP_RUNS)]
        if args.trace:
            # Each pair runs one input untraced, then traced; half the
            # iterations of an untraced run, so the run takes as long.
            count = iteration_count(args.workload, args.seconds / 2, MIN_PAIRS, args.tiny)
            pairs = repeat(
                lambda i: (worker("run", args, i, i, deadline)[1], worker("trace", args, i, i, deadline)[1]),
                count,
            )
            plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
        else:
            count = iteration_count(args.workload, args.seconds, MIN_ITERATIONS, args.tiny)
            plain = [r for _, r in repeat(lambda i: worker("run", args, i, i, deadline), count)]
            traced = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = plain + traced
    if args.trace:
        metrics, missing = per_layer(plain, traced)
    else:
        metrics, missing = end_to_end(plain, setup), []
    regressions = sorted({x for r in runs for x in r["regressions"]})
    result = {
        "correct": not regressions,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    env = environment(args, len(runs))
    record = {"env": env, "result": result, "missing": missing, "regressions": regressions,
              "setup_s": setup, "runs": runs}
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print("env " + json.dumps(env, sort_keys=True))
    if regressions:
        print("answers that changed or newly fail: " + ", ".join(regressions[:20]))
    if missing:
        print("missing per-layer metrics: " + ", ".join(missing))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
