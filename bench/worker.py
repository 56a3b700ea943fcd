"""One benchmark iteration in a fresh interpreter.

    python3 bench/worker.py <setup|run|trace> <workload> <seed> <iteration> [tiny]

``setup`` imports spectop and builds the inputs, then exits; run.py times
the whole process as set-up.  ``run`` also times the iteration's
operations in reference seconds, with the host-speed loop sampled while
they run (hostspeed.py), and checks every answer; ``trace`` does the same
with the span tracer installed and writes the spans to
``.bench_out/spans-<workload>.json``.  The last line
of stdout is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def main(argv: list[str]) -> int:
    mode, workload, seed, iteration = argv[0], argv[1], int(argv[2]), int(argv[3])
    from workloads import WORKLOADS, load_expected, run_ops

    w = WORKLOADS[workload]
    inputs = w.inputs(seed, iteration, tiny=argv[4:] == ["tiny"])
    if mode == "setup":
        print("{}")
        return 0
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = w.ops(inputs)
    try:
        out = run_ops(ops)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdict = w.check(inputs, out, load_expected(workload))
    ref_wall = sum(ref for _, _, ref in out.latencies)
    result = {
        "latencies": [(label, own) for label, own, _ in out.latencies],
        "ref_latencies": [(label, ref) for label, _, ref in out.latencies],
        "ref_wall_s": ref_wall,
        # Reference seconds per second of the traced interval, for span times.
        "factor": ref_wall / out.wall_s,
        "host_samples": out.samples,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "regressions": verdict.regressions,
        "peak_rss_mb": rss_mb,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["missing"] = tracer.missing
        tracer.dump(ROOT / ".bench_out" / f"spans-{workload}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
