"""The three workloads: seeded inputs, timed operations, answer checks.

Each workload turns its inputs into a list of operations (a supplement
report, a `verify <suite>` call, a query); run_ops times them one by one.
An iteration runs in a fresh interpreter (see worker.py), so memo tables
such as the lru caches in spectop.rings start empty, as for a CLI user.
Every answer is checked after the timed section; a wrong or changed answer
counts as a failed operation, never as a fast one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import hostspeed
import queries
from spectop import cli, construction, jsonio, rings

EXPECTED = Path(__file__).resolve().parent / "expected"

# The supplement suite's sizes; the seed picks two prime fields from this
# pool, and Q is always the third (seed 0 gives F2, F3, Q as in
# `spectop verify supplement`).
SUPPLEMENT_NS = range(2, 9)
FIELD_POOL = (2, 3, 5, 7, 11, 13)
FIELD_PAIRS = list(combinations(FIELD_POOL, 2))

# Every verify suite except supplement, in `spectop verify all` order.
SYMBOLIC_SUITES = (
    "closure-axioms", "density", "finite-closure", "lying-over",
    "nilradical-product", "oracle-agreement", "pz", "remark-flat", "remark-v5",
)
# The tiny size, for the benchmark's own tests: the same operations, fewer.
TINY_NS = range(2, 5)
TINY_SUITES = ("finite-closure", "pz", "remark-flat", "remark-v5")
# Suite reports are recorded for suite seeds 0..SUITE_SEEDS-1.  Iteration
# i runs the suites at suite seed (seed + 19 i) mod SUITE_SEEDS: iteration
# 0 passes the seed through, and a run's median covers several suite seeds,
# whose case counts and costs differ by up to 15 %.
SUITE_SEEDS = 100

clock = time.perf_counter


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected(workload: str) -> dict:
    with open(EXPECTED / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """What one timed iteration produced, before checking."""

    latencies: list[tuple[str, float, float]]  # (suite or query class, seconds, reference seconds)
    wall_s: float  # from the first operation's start to the last one's end, sampling included
    samples: int  # host-speed samples taken
    answers: list


def run_ops(ops) -> Outcome:
    """Time each operation while the host-speed loop is sampled (hostspeed.Sampler)."""
    spans, answers = [], []
    with hostspeed.Sampler() as sampler:
        for label, op in ops:
            t0 = clock()
            answers.append(op())
            spans.append((label, t0, clock()))
    lat = [(label, *sampler.reference(t0, t1)) for label, t0, t1 in spans]
    return Outcome(lat, spans[-1][2] - spans[0][1], len(sampler.samples), answers)


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    regressions: list[str] = field(default_factory=list)  # failures new since the recording

    def fail(self, what: str, count: int = 1, known_defect: bool = False) -> None:
        self.failed += count
        if not known_defect:
            self.regressions.append(what)


def run_cli(argv) -> tuple[object, str]:
    """One CLI call with output captured: (exit code, stdout).

    An exception escaping run_command is what a CLI user sees as a
    traceback with exit 1; it is recorded as "exc:<type>".
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run_command(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - the outcome under test
            code = f"exc:{type(exc).__name__}"
    return code, out.getvalue()


def outcome_key(code, stdout: str) -> str:
    return code if isinstance(code, str) else f"{code}:{digest(stdout)}"


# ---------------------------------------------------------------------------
# axes-supplement
# ---------------------------------------------------------------------------


def supplement_fields(seed: int) -> list[str]:
    a, b = FIELD_PAIRS[seed % len(FIELD_PAIRS)]
    return [f"F{a}", f"F{b}", "Q"]


class AxesSupplement:
    name = "axes-supplement"

    def inputs(self, seed: int, iteration: int, tiny: bool = False):
        ns = TINY_NS if tiny else SUPPLEMENT_NS
        return [
            (name, rings.QQ if name == "Q" else rings.prime_field(int(name[1:])), ns)
            for name in supplement_fields(seed)
        ]

    def ops(self, fields):
        return [
            ("supplement", lambda K=K, n=n: construction.supplement_report(K, n))
            for _, K, ns in fields
            for n in ns
        ]

    def check(self, fields, out: Outcome, expected: dict) -> Verdict:
        v = Verdict()
        labels = [f"{name}/{n}" for name, _, ns in fields for n in ns]
        for label, rep in zip(labels, out.answers):
            v.attempted += 1
            text = jsonio.dumps_canonical(jsonio.supplement_report_to_json(rep))
            # The paper's statements hold for every n >= 2 and every field.
            if not rep.all_ok or expected.get(label) != digest(text):
                v.fail(label)
        return v


# ---------------------------------------------------------------------------
# suites-symbolic
# ---------------------------------------------------------------------------


class SuitesSymbolic:
    name = "suites-symbolic"

    def inputs(self, seed: int, iteration: int, tiny: bool = False):
        names = TINY_SUITES if tiny else SYMBOLIC_SUITES
        suite_seed = (seed + 19 * iteration) % SUITE_SEEDS
        return [["verify", s, "--seed", str(suite_seed), "--json"] for s in names]

    def ops(self, argvs):
        return [(argv[1], lambda argv=argv: run_cli(argv)) for argv in argvs]

    def check(self, argvs, out: Outcome, expected: dict) -> Verdict:
        v = Verdict()
        for argv, (code, stdout) in zip(argvs, out.answers):
            key = f"{argv[1]}/{argv[3]}"
            total, want = expected[key].split(":")
            if code != 0:
                v.attempted += int(total)
                v.fail(key, int(total))
                continue
            summary = json.loads(stdout)["results"][0]["summary"]
            v.attempted += summary["total"]
            if digest(stdout) != want:
                v.fail(key, summary["total"])
            elif summary["failures"]:
                v.fail(key, summary["failures"])
        return v


# ---------------------------------------------------------------------------
# query-mix
# ---------------------------------------------------------------------------


class QueryMix:
    name = "query-mix"

    def inputs(self, seed: int, iteration: int, tiny: bool = False):
        return queries.batch(seed, iteration, tiny)

    def ops(self, batch):
        return [(q.cls, lambda argv=q.argv: run_cli(argv)) for q in batch]

    def check(self, batch, out: Outcome, expected: dict) -> Verdict:
        """A known answer decides first; otherwise the recorded bytes do.

        Entries whose recorded outcome already missed the known answer are
        the baseline's known defects: they still count as failed, but only
        a different outcome for them is a regression.
        """
        v = Verdict()
        recorded, defects = expected["outcomes"], set(expected["known_failures"])
        for q, (code, stdout) in zip(batch, out.answers):
            v.attempted += 1
            got = outcome_key(code, stdout)
            if q.known is not None and not queries.known_ok(q.known, code, stdout):
                v.fail(q.id, known_defect=q.id in defects and got == recorded.get(q.id))
            elif q.id not in defects and got != recorded.get(q.id):
                v.fail(q.id)
        return v


WORKLOADS = {w.name: w for w in (AxesSupplement(), SuitesSymbolic(), QueryMix())}
