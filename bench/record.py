"""Record the reference answers that the benchmark checks against.

    python3 bench/record.py [axes-supplement] [suites-symbolic] [query-mix]

Writes bench/expected/<workload>.json from the current sources.  These
files pin the answers of the commit that introduced the benchmark; a
later change that alters an answer must show up as a failed operation,
so do not re-record to make such a change pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import queries  # noqa: E402
import workloads as wl  # noqa: E402
from spectop import construction, jsonio, rings  # noqa: E402


def record_axes_supplement() -> dict:
    out = {}
    for name in [f"F{p}" for p in wl.FIELD_POOL] + ["Q"]:
        K = rings.QQ if name == "Q" else rings.prime_field(int(name[1:]))
        for n in wl.SUPPLEMENT_NS:
            rep = construction.supplement_report(K, n)
            out[f"{name}/{n}"] = wl.digest(jsonio.dumps_canonical(jsonio.supplement_report_to_json(rep)))
    return out


def record_suites_symbolic() -> dict:
    out = {}
    for suite in wl.SYMBOLIC_SUITES:
        for seed in range(wl.SUITE_SEEDS):
            code, stdout = wl.run_cli(["verify", suite, "--seed", str(seed), "--json"])
            if code != 0:
                raise SystemExit(f"verify {suite} --seed {seed} exited {code}")
            total = json.loads(stdout)["results"][0]["summary"]["total"]
            out[f"{suite}/{seed}"] = f"{total}:{wl.digest(stdout)}"
    return out


def record_query_mix() -> dict:
    outcomes, known_failures = {}, []
    for q in queries.catalog():
        code, stdout = wl.run_cli(q.argv)
        outcomes[q.id] = wl.outcome_key(code, stdout)
        if q.known is not None and not queries.known_ok(q.known, code, stdout):
            known_failures.append(q.id)
    return {"outcomes": outcomes, "known_failures": known_failures}


RECORDERS = {
    "axes-supplement": record_axes_supplement,
    "suites-symbolic": record_suites_symbolic,
    "query-mix": record_query_mix,
}


def main(names: list[str]) -> int:
    for name in names or list(RECORDERS):
        doc = RECORDERS[name]()
        path = BENCH / "expected" / f"{name}.json"
        path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
